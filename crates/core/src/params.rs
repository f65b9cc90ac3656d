//! Model parameters, with the defaults of the paper's Section 4.
//!
//! One time unit = one hour. Rates given by the paper as *cumulative*
//! (system-wide) values are apportioned uniformly across attackable
//! entities — see `DESIGN.md` §5 for the rationale; every knob is exposed
//! here so studies can vary them.

use std::fmt;

/// Which entities the management algorithm excludes on detection of an
/// intrusion (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ManagementScheme {
    /// Exclude the whole security domain containing the corrupt entity
    /// (the paper's primary algorithm — a preemptive strike assuming the
    /// attack spread inside the domain).
    #[default]
    DomainExclusion,
    /// Exclude only the host on which the intrusion was detected.
    HostExclusion,
}

/// Where replicas of one application may be placed relative to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementConstraint {
    /// At most one replica of an application per security domain (the
    /// paper's constraint under domain exclusion).
    OnePerDomain,
    /// At most one replica of an application per host (the natural
    /// constraint under host exclusion, per the paper's §2 wording).
    OnePerHost,
}

/// Attack-category distribution and detection probabilities for attacks on
/// a host's OS and services (Jonsson & Olovsson's three classes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackMix {
    /// Probability an attack is script-based (paper: 0.80).
    pub p_script: f64,
    /// Probability an attack is "more exploratory" (paper: 0.15).
    pub p_exploratory: f64,
    /// Probability an attack is innovative (paper: 0.05).
    pub p_innovative: f64,
    /// IDS detection probability for script-based host attacks (0.90).
    pub detect_script: f64,
    /// IDS detection probability for exploratory host attacks (0.75).
    pub detect_exploratory: f64,
    /// IDS detection probability for innovative host attacks (0.40).
    pub detect_innovative: f64,
}

impl Default for AttackMix {
    fn default() -> Self {
        AttackMix {
            p_script: 0.80,
            p_exploratory: 0.15,
            p_innovative: 0.05,
            detect_script: 0.90,
            detect_exploratory: 0.75,
            detect_innovative: 0.40,
        }
    }
}

/// Hosts in the paper's baseline configuration (10 domains × 3 hosts),
/// used to normalize cumulative rates into per-entity rates.
pub const REFERENCE_HOSTS: usize = 30;
/// Replica slots in the baseline configuration (4 applications × 7).
pub const REFERENCE_REPLICA_SLOTS: usize = 28;

/// Most hosts a configuration may have in total (domains × hosts per
/// domain), so a mistyped layout fails validation instead of simulating
/// without bound. The largest shipped study, Figure 4, has 40. At the
/// bound, with 15 applications of [`MAX_REPLICAS_PER_APP`] replicas,
/// `itua run --reps 2 --threads 1` takes 0.02 s on the DES and 2.3 s
/// (1000 domains × 1 host) to 11.7 s (1 × 1000) on the SAN, on a
/// 2-vCPU Xeon.
pub const MAX_HOSTS: usize = 1000;

/// Most replicas one application may start. The shipped studies start
/// 7. At the bound, with 15 applications on 40 domains × 25 hosts,
/// `itua run --reps 2 --threads 1` takes 0.01 s on the DES and 5.0 s on
/// the SAN, on a 2-vCPU Xeon.
pub const MAX_REPLICAS_PER_APP: usize = 28;

/// Largest value either spread rate may take, per hour. The SAN encoding
/// keeps spread levels in tenths on `i32` places, and each corrupt host
/// adds ten times the rate to one of them, so at the bound even
/// [`MAX_HOSTS`] hosts reach 10⁸, far inside `i32`. The shipped studies
/// sweep up to 10 per hour.
pub const MAX_SPREAD_RATE: f64 = 1e4;

/// Largest value any per-entity rate may take, per hour: the derived
/// attack and false-alarm rates (the `Params::*_rate` accessors),
/// [`Params::ids_rate`] and [`Params::misbehave_rate`]. A rate of 10⁴
/// per hour is a mean delay of 0.36 s, ten times the rate of the model's
/// fastest activity (the SAN's recovery, 1000 per hour). Above it a derived
/// rate can overflow to infinity, which the SAN cannot build, and the
/// DES re-arms a disabled misbehaviour event at its own rate while a
/// group lacks quorum: at 10⁹ per hour two replications of a 2 × 2 host
/// layout were still running after 40 s.
pub const MAX_RATE: f64 = 1e4;

/// Full parameter set for the ITUA model.
///
/// Defaults reproduce the paper's Section 4 baseline. Builder-style
/// `with_*` methods support the studies' sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Number of security domains.
    pub num_domains: usize,
    /// Hosts per security domain (uniform, per the paper's assumption).
    pub hosts_per_domain: usize,
    /// Number of replicated applications.
    pub num_apps: usize,
    /// Replicas started per application (subject to placement).
    pub reps_per_app: usize,

    /// Cumulative base rate of successful attacks on the whole system
    /// (paper: 3 per hour), apportioned over entities by the weights below.
    pub base_attack_rate: f64,
    /// Relative attack weight of a host (OS and services).
    pub attack_weight_host: f64,
    /// Relative attack weight of an application replica.
    pub attack_weight_replica: f64,
    /// Relative attack weight of a management entity.
    pub attack_weight_manager: f64,

    /// Cumulative false-alarm rate (paper: 2 per hour), apportioned
    /// uniformly over hosts and replica slots.
    pub false_alarm_rate: f64,

    /// Calibration factor applied to both cumulative rates when deriving
    /// per-entity process rates. The paper's plotted magnitudes (e.g.
    /// Figure 3(d)'s ≈0.2 fraction of domains excluded in 5 h) are not
    /// attainable with the stated cumulative rates under *any*
    /// apportionment, because nearly every successful attack is eventually
    /// detected and every detection excludes a domain; the thesis the
    /// paper cites for full details is unavailable. This factor models the
    /// fraction of the cumulative attack/alarm pressure that materializes
    /// as the per-entity processes the SAN describes (DESIGN.md §5).
    pub effective_rate_factor: f64,

    /// Host attack categories and their detection probabilities.
    pub attack_mix: AttackMix,
    /// IDS detection probability for corrupt replicas (paper: 0.80).
    pub detect_replica: f64,
    /// IDS detection probability for corrupt managers (paper: 0.80).
    pub detect_manager: f64,
    /// Rate of the IDS detection activities — the reciprocal of the mean
    /// latency between an intrusion and its (possible) detection. The
    /// paper gives probabilities but not latencies; 1/hour is our
    /// documented assumption (DESIGN.md §5).
    pub ids_rate: f64,

    /// Rate at which a corrupt replica exhibits anomalous behavior during
    /// group communication (paper: 2 per hour).
    pub misbehave_rate: f64,

    /// The intra-domain attack-spread variable (paper default: 1; swept
    /// 0–10 in §4.3). Following the paper's SAN description, this single
    /// variable is **both** the rate of the one-shot `propagate_domain`
    /// activity fired by a corrupt host **and** the amount it adds to the
    /// domain's spread level ("the marking … is incremented by a model
    /// variable representing the amount of spread effect. This variable
    /// also determines the rate of the propagate domain activity").
    pub spread_rate_domain: f64,
    /// The system-wide attack-spread variable (paper: 0.1), with the same
    /// dual role as [`Params::spread_rate_domain`].
    pub spread_rate_system: f64,
    /// Scale of the intra-domain spread level in the host attack rate:
    /// the rate is multiplied by
    /// `1 + effect_domain·level_d + effect_system·level_s`.
    pub spread_effect_domain: f64,
    /// Scale of the system-wide spread level (much smaller than the
    /// intra-domain effect, per the paper).
    pub spread_effect_system: f64,

    /// Factor governing how much more vulnerable a host's replicas and
    /// manager become once the host itself is corrupted (paper default: 2;
    /// 5 in the §4.3 study: corruption of the host "increased fivefold the
    /// chances that the replicas and management entity running on the host
    /// would be corrupt").
    ///
    /// Once the attacker owns the host OS, attacking co-located processes
    /// is a *local* escalation rather than a remote attack, so the model
    /// rates that channel off the host attack rate: a replica/manager on a
    /// corrupt host is corrupted at
    /// `max(multiplier × host_attack_rate, multiplier × base_rate)`
    /// (see [`Params::corrupt_host_replica_rate`]). With the remote
    /// per-replica rate far below the per-host rate, the first term
    /// dominates; the paper's literal "multiply the base rate by a
    /// constant" is recovered whenever the base rate dominates.
    pub host_corruption_multiplier: f64,

    /// Management exclusion policy.
    pub scheme: ManagementScheme,
    /// Replica placement constraint.
    pub placement: PlacementConstraint,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            num_domains: 10,
            hosts_per_domain: 3,
            num_apps: 4,
            reps_per_app: 7,
            base_attack_rate: 3.0,
            // Relative weights are not given by the paper; these are the
            // repository's calibrated defaults (DESIGN.md §5): the host
            // OS/services present a larger attack surface than a single
            // application replica or middleware manager.
            attack_weight_host: 1.0,
            attack_weight_replica: 0.15,
            attack_weight_manager: 0.5,
            false_alarm_rate: 2.0,
            effective_rate_factor: 0.5,
            attack_mix: AttackMix::default(),
            detect_replica: 0.80,
            detect_manager: 0.80,
            // Mean latency ≈ 6.7 h between an intrusion and the *confirmed*
            // detection that triggers the drastic exclusion response; also a
            // calibrated default (the paper gives probabilities only).
            ids_rate: 0.15,
            misbehave_rate: 2.0,
            spread_rate_domain: 1.0,
            spread_rate_system: 0.1,
            spread_effect_domain: 1.0,
            spread_effect_system: 0.1,
            host_corruption_multiplier: 2.0,
            scheme: ManagementScheme::DomainExclusion,
            placement: PlacementConstraint::OnePerDomain,
        }
    }
}

/// Error from validating a [`Params`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParamsError {
    what: String,
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ITUA parameters: {}", self.what)
    }
}

impl std::error::Error for ParamsError {}

impl Params {
    /// Sets the domain layout.
    pub fn with_domains(mut self, domains: usize, hosts_per_domain: usize) -> Self {
        self.num_domains = domains;
        self.hosts_per_domain = hosts_per_domain;
        self
    }

    /// Sets the application layout.
    pub fn with_applications(mut self, apps: usize, reps_per_app: usize) -> Self {
        self.num_apps = apps;
        self.reps_per_app = reps_per_app;
        self
    }

    /// Sets the management scheme, also switching the placement constraint
    /// to the scheme's natural one.
    pub fn with_scheme(mut self, scheme: ManagementScheme) -> Self {
        self.scheme = scheme;
        self.placement = match scheme {
            ManagementScheme::DomainExclusion => PlacementConstraint::OnePerDomain,
            ManagementScheme::HostExclusion => PlacementConstraint::OnePerHost,
        };
        self
    }

    /// Sets the intra-domain spread rate (the §4.3 sweep variable).
    pub fn with_spread_rate(mut self, rate: f64) -> Self {
        self.spread_rate_domain = rate;
        self
    }

    /// Sets the host-corruption multiplier (2 by default, 5 in §4.3).
    pub fn with_host_corruption_multiplier(mut self, m: f64) -> Self {
        self.host_corruption_multiplier = m;
        self
    }

    /// Total number of hosts.
    pub fn total_hosts(&self) -> usize {
        self.num_domains * self.hosts_per_domain
    }

    /// Base attack rate on one host (before spread scaling).
    pub fn host_attack_rate(&self) -> f64 {
        self.effective_rate_factor * self.base_attack_rate * self.attack_weight_host
            / self.attack_weight_total()
    }

    /// Base attack rate on one running replica (before host-corruption
    /// scaling).
    pub fn replica_attack_rate(&self) -> f64 {
        self.effective_rate_factor * self.base_attack_rate * self.attack_weight_replica
            / self.attack_weight_total()
    }

    /// Base attack rate on one manager (before host-corruption scaling).
    pub fn manager_attack_rate(&self) -> f64 {
        self.effective_rate_factor * self.base_attack_rate * self.attack_weight_manager
            / self.attack_weight_total()
    }

    fn attack_weight_total(&self) -> f64 {
        // Per-entity rates are normalized against the paper's *baseline*
        // configuration (10 domains × 3 hosts, 4 applications × 7
        // replicas), not the current study's entity counts: §4.2 states
        // that "the probability of a successful intrusion into a host is
        // assumed to be the same in all experiments", so the cumulative
        // rate describes the baseline and per-entity rates are constants.
        self.attack_weight_host * REFERENCE_HOSTS as f64
            + self.attack_weight_replica * REFERENCE_REPLICA_SLOTS as f64
            + self.attack_weight_manager * REFERENCE_HOSTS as f64
    }

    /// Rate at which a replica running on a *corrupt* host is corrupted
    /// (local escalation channel; see
    /// [`Params::host_corruption_multiplier`]).
    pub fn corrupt_host_replica_rate(&self) -> f64 {
        self.host_corruption_multiplier * self.host_attack_rate().max(self.replica_attack_rate())
    }

    /// Rate at which the manager of a *corrupt* host is corrupted.
    pub fn corrupt_host_manager_rate(&self) -> f64 {
        self.host_corruption_multiplier * self.host_attack_rate().max(self.manager_attack_rate())
    }

    /// False-alarm rate charged to one host (host OS / manager alarms).
    ///
    /// Like the attack rates, normalized by the baseline configuration so
    /// the per-host rate is study-independent.
    pub fn host_false_alarm_rate(&self) -> f64 {
        self.effective_rate_factor * self.false_alarm_rate
            / (REFERENCE_HOSTS + REFERENCE_REPLICA_SLOTS) as f64
    }

    /// False-alarm rate charged to one replica slot.
    pub fn replica_false_alarm_rate(&self) -> f64 {
        self.host_false_alarm_rate()
    }

    /// Host attack-rate multiplier given accumulated spread levels.
    pub fn spread_multiplier(&self, domain_spread: f64, system_spread: f64) -> f64 {
        1.0 + self.spread_effect_domain * domain_spread + self.spread_effect_system * system_spread
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] for empty layouts, more than
    /// [`MAX_HOSTS`] hosts or [`MAX_REPLICAS_PER_APP`] replicas per
    /// application, probabilities outside `[0, 1]`, negative rates, spread
    /// rates above [`MAX_SPREAD_RATE`], per-entity rates that are not
    /// finite or exceed [`MAX_RATE`], or more than 15 applications (the
    /// paper's limit, kept for fidelity: the SAN encoding's
    /// per-application counter places have none).
    pub fn validate(&self) -> Result<(), ParamsError> {
        let err = |what: &str| Err(ParamsError { what: what.into() });
        if self.num_domains == 0 || self.hosts_per_domain == 0 {
            return err("need at least one domain and one host per domain");
        }
        if self.num_domains.saturating_mul(self.hosts_per_domain) > MAX_HOSTS {
            return err(&format!(
                "at most {MAX_HOSTS} hosts in total (domains x hosts per domain)"
            ));
        }
        if self.num_apps == 0 || self.reps_per_app == 0 {
            return err("need at least one application with one replica");
        }
        if self.reps_per_app > MAX_REPLICAS_PER_APP {
            return err(&format!(
                "at most {MAX_REPLICAS_PER_APP} replicas per application"
            ));
        }
        if self.num_apps > 15 {
            return err("at most 15 applications (the paper's limit)");
        }
        let probs = [
            self.attack_mix.p_script,
            self.attack_mix.p_exploratory,
            self.attack_mix.p_innovative,
            self.attack_mix.detect_script,
            self.attack_mix.detect_exploratory,
            self.attack_mix.detect_innovative,
            self.detect_replica,
            self.detect_manager,
        ];
        if probs.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return err("probabilities must be in [0, 1]");
        }
        let mix =
            self.attack_mix.p_script + self.attack_mix.p_exploratory + self.attack_mix.p_innovative;
        if (mix - 1.0).abs() > 1e-9 {
            return err("attack category probabilities must sum to 1");
        }
        let rates = [
            self.base_attack_rate,
            self.false_alarm_rate,
            self.ids_rate,
            self.misbehave_rate,
            self.spread_rate_domain,
            self.spread_rate_system,
            self.spread_effect_domain,
            self.spread_effect_system,
        ];
        if rates.iter().any(|r| !r.is_finite() || *r < 0.0) {
            return err("rates must be finite and nonnegative");
        }
        if self.spread_rate_domain.max(self.spread_rate_system) > MAX_SPREAD_RATE {
            return err(&format!(
                "spread rates must be at most {MAX_SPREAD_RATE} per hour"
            ));
        }
        if self.base_attack_rate <= 0.0 || self.ids_rate <= 0.0 {
            return err("base attack rate and IDS rate must be positive");
        }
        if !(self.host_corruption_multiplier.is_finite()) || self.host_corruption_multiplier < 1.0 {
            return err("host corruption multiplier must be >= 1");
        }
        if !self.effective_rate_factor.is_finite() || self.effective_rate_factor <= 0.0 {
            return err("effective rate factor must be positive");
        }
        let weights = [
            self.attack_weight_host,
            self.attack_weight_replica,
            self.attack_weight_manager,
        ];
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) || weights.iter().sum::<f64>() <= 0.0
        {
            return err("attack weights must be nonnegative with positive sum");
        }
        // No derived rate can come near the bound while these products
        // stay under it: every attack rate is at most `factor · base / 28`
        // (the total weight is at least 28 times any one weight), the
        // false-alarm rate `factor · false_alarm_rate / 58`. Only past
        // them is the largest derived rate computed, with its divisions.
        let small =
            self.host_corruption_multiplier * self.effective_rate_factor * self.base_attack_rate
                <= MAX_RATE
                && self.effective_rate_factor * self.false_alarm_rate <= MAX_RATE;
        let derived = if small {
            0.0
        } else {
            self.largest_derived_rate()
        };
        let per_entity = [derived, self.ids_rate, self.misbehave_rate];
        if per_entity
            .iter()
            .any(|r| !(r.is_finite() && *r <= MAX_RATE))
        {
            return err(&format!(
                "per-entity attack, false-alarm, IDS and misbehaviour rates must be at most \
                 {MAX_RATE} per hour"
            ));
        }
        Ok(())
    }

    /// The largest of the derived per-entity rates (the attack and
    /// false-alarm accessors), bit for bit: each attack rate is
    /// `factor · base · w / total` for its entity's weight, so the largest
    /// weight gives the largest (rounding is monotone), and the
    /// corrupt-host rates scale the larger of two of them by the
    /// multiplier, which validation keeps at least 1. Both false-alarm
    /// rates are the per-host one. NaN when a rate is.
    fn largest_derived_rate(&self) -> f64 {
        let weight = self
            .attack_weight_host
            .max(self.attack_weight_replica)
            .max(self.attack_weight_manager);
        let attack = self.host_corruption_multiplier
            * (self.effective_rate_factor * self.base_attack_rate * weight
                / self.attack_weight_total());
        let false_alarm = self.host_false_alarm_rate();
        if attack.is_nan() || false_alarm.is_nan() {
            f64::NAN
        } else {
            attack.max(false_alarm)
        }
    }

    /// Whether a group of `active` members with `corrupt` undetected
    /// corruptions can still reach Byzantine agreement (strictly fewer than
    /// one third corrupt).
    pub fn quorum_ok(active: usize, corrupt: usize) -> bool {
        3 * corrupt < active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_4() {
        let p = Params::default();
        assert_eq!(p.base_attack_rate, 3.0);
        assert_eq!(p.false_alarm_rate, 2.0);
        assert_eq!(p.attack_mix.p_script, 0.80);
        assert_eq!(p.attack_mix.p_exploratory, 0.15);
        assert_eq!(p.attack_mix.p_innovative, 0.05);
        assert_eq!(p.attack_mix.detect_script, 0.90);
        assert_eq!(p.attack_mix.detect_exploratory, 0.75);
        assert_eq!(p.attack_mix.detect_innovative, 0.40);
        assert_eq!(p.detect_replica, 0.80);
        assert_eq!(p.detect_manager, 0.80);
        assert_eq!(p.misbehave_rate, 2.0);
        assert_eq!(p.spread_rate_domain, 1.0);
        assert_eq!(p.spread_rate_system, 0.1);
        assert_eq!(p.host_corruption_multiplier, 2.0);
        assert_eq!(p.scheme, ManagementScheme::DomainExclusion);
        p.validate().unwrap();
    }

    #[test]
    fn cumulative_rates_apportioned_at_baseline() {
        // At the baseline configuration with equal weights and no
        // calibration factor, per-entity rates sum back to the paper's
        // cumulative rates.
        let mut p = Params::default()
            .with_domains(10, 3)
            .with_applications(4, 7);
        p.attack_weight_host = 1.0;
        p.attack_weight_replica = 1.0;
        p.attack_weight_manager = 1.0;
        p.effective_rate_factor = 1.0;
        let total = p.host_attack_rate() * 30.0
            + p.replica_attack_rate() * 28.0
            + p.manager_attack_rate() * 30.0;
        assert!((total - 3.0).abs() < 1e-12);
        let fa = p.host_false_alarm_rate() * 30.0 + p.replica_false_alarm_rate() * 28.0;
        assert!((fa - 2.0).abs() < 1e-12);
    }

    #[test]
    fn per_entity_rates_are_study_independent() {
        // §4.2: "the probability of a successful intrusion into a host is
        // assumed to be the same in all experiments".
        let small = Params::default()
            .with_domains(12, 1)
            .with_applications(2, 7);
        let large = Params::default()
            .with_domains(10, 4)
            .with_applications(8, 7);
        assert_eq!(small.host_attack_rate(), large.host_attack_rate());
        assert_eq!(small.replica_attack_rate(), large.replica_attack_rate());
        assert_eq!(small.manager_attack_rate(), large.manager_attack_rate());
        assert_eq!(small.host_false_alarm_rate(), large.host_false_alarm_rate());
    }

    #[test]
    fn builders_update_layout() {
        let p = Params::default().with_domains(6, 2).with_applications(8, 7);
        assert_eq!(p.total_hosts(), 12);
        p.validate().unwrap();
    }

    #[test]
    fn scheme_switch_changes_placement() {
        let p = Params::default().with_scheme(ManagementScheme::HostExclusion);
        assert_eq!(p.placement, PlacementConstraint::OnePerHost);
        let p = p.with_scheme(ManagementScheme::DomainExclusion);
        assert_eq!(p.placement, PlacementConstraint::OnePerDomain);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(Params::default().with_domains(0, 3).validate().is_err());
        assert!(Params::default()
            .with_applications(16, 7)
            .validate()
            .is_err());
        let mut p = Params::default();
        p.attack_mix.p_script = 0.5; // mix no longer sums to 1
        assert!(p.validate().is_err());
        let p = Params {
            detect_replica: 1.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = Params {
            base_attack_rate: 0.0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = Params {
            host_corruption_multiplier: 0.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = Params {
            spread_rate_domain: -1.0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn layout_size_is_bounded() {
        let at_bound = Params::default().with_domains(40, 25);
        assert_eq!(at_bound.total_hosts(), MAX_HOSTS);
        at_bound.validate().unwrap();
        for (domains, hosts) in [(MAX_HOSTS + 1, 1), (1, MAX_HOSTS + 1), (usize::MAX, 2)] {
            let err = Params::default()
                .with_domains(domains, hosts)
                .validate()
                .unwrap_err();
            assert!(err.to_string().contains("at most 1000 hosts"), "{err}");
        }

        let p = Params::default().with_applications(15, MAX_REPLICAS_PER_APP);
        p.validate().unwrap();
        let err = p
            .with_applications(15, MAX_REPLICAS_PER_APP + 1)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("at most 28 replicas"), "{err}");
    }

    #[test]
    fn spread_rates_are_bounded() {
        let with = |domain, system| Params {
            spread_rate_domain: domain,
            spread_rate_system: system,
            ..Default::default()
        };
        with(MAX_SPREAD_RATE, MAX_SPREAD_RATE).validate().unwrap();
        for (domain, system) in [(MAX_SPREAD_RATE * 1.001, 0.1), (1.0, 2e4), (1e300, 0.0)] {
            let err = with(domain, system).validate().unwrap_err();
            assert!(err.to_string().contains("at most 10000 per hour"), "{err}");
        }
        // At the bound the SAN's spread levels (tenths, one increment per
        // corrupt host) stay inside `i32`.
        let most = MAX_HOSTS as f64 * 10.0 * MAX_SPREAD_RATE;
        assert!(most < f64::from(i32::MAX), "{most}");
    }

    #[test]
    fn the_bounded_rate_is_the_largest_derived_rate() {
        // Validation checks one rate for the seven derived-rate accessors;
        // it must be the largest of them, bit for bit, whichever wins.
        for (host, replica, manager, multiplier, false_alarms) in [
            (1.0, 0.15, 0.5, 2.0, 2.0),
            (0.1, 0.9, 0.5, 1.0, 2.0),
            (0.2, 0.3, 0.7, 5.0, 2.0),
            (0.0, 0.0, 1.0, 3.0, 2.0),
            (1.0, 0.15, 0.5, 2.0, 500.0),
        ] {
            let p = Params {
                attack_weight_host: host,
                attack_weight_replica: replica,
                attack_weight_manager: manager,
                host_corruption_multiplier: multiplier,
                false_alarm_rate: false_alarms,
                ..Params::default()
            };
            let largest = [
                p.host_attack_rate(),
                p.replica_attack_rate(),
                p.manager_attack_rate(),
                p.corrupt_host_replica_rate(),
                p.corrupt_host_manager_rate(),
                p.host_false_alarm_rate(),
                p.replica_false_alarm_rate(),
            ]
            .into_iter()
            .fold(0.0, f64::max);
            assert_eq!(p.largest_derived_rate().to_bits(), largest.to_bits());
        }
    }

    #[test]
    fn per_entity_rates_are_bounded() {
        let base = Params {
            effective_rate_factor: 4.0,
            ..Params::default()
        };
        base.validate().unwrap();
        type Edit = fn(&mut Params);
        let hostile: [Edit; 6] = [
            // Each derived rate overflows to infinity.
            |p| p.effective_rate_factor = 1e308,
            |p| p.false_alarm_rate = 1e308,
            |p| p.base_attack_rate = 1e308,
            |p| p.host_corruption_multiplier = 1e308,
            // Finite, past the bound.
            |p| p.misbehave_rate = 1e9,
            |p| p.ids_rate = MAX_RATE * 1.001,
        ];
        for edit in hostile {
            let mut p = base.clone();
            edit(&mut p);
            let err = p.validate().unwrap_err();
            assert!(err.to_string().contains("at most 10000 per hour"), "{err}");
        }
        let at_bound = Params {
            ids_rate: MAX_RATE,
            misbehave_rate: MAX_RATE,
            ..Params::default()
        };
        at_bound.validate().unwrap();
        // Past the products that bound every derived rate from above, the
        // rates themselves decide: the largest is `base / 49.2` here.
        let base = |base_attack_rate| Params {
            base_attack_rate,
            ..Params::default()
        };
        base(3e4).validate().unwrap();
        base(3e6).validate().unwrap_err();
    }

    #[test]
    fn spread_multiplier_is_linear() {
        let p = Params::default();
        assert_eq!(p.spread_multiplier(0.0, 0.0), 1.0);
        assert_eq!(p.spread_multiplier(2.0, 0.0), 3.0);
        assert!((p.spread_multiplier(0.0, 3.0) - 1.3).abs() < 1e-12);
        assert!((p.spread_multiplier(1.0, 1.0) - 2.1).abs() < 1e-12);
        // §4.3: a spread variable of 10 adds 10 to the level per event.
        assert_eq!(p.spread_multiplier(10.0, 0.0), 11.0);
    }

    #[test]
    fn quorum_rule_is_strict_third() {
        // "less than a third of the currently active group members"
        assert!(Params::quorum_ok(7, 2));
        assert!(!Params::quorum_ok(7, 3));
        assert!(Params::quorum_ok(4, 1));
        assert!(!Params::quorum_ok(3, 1));
        assert!(!Params::quorum_ok(1, 1));
        assert!(!Params::quorum_ok(0, 0)); // empty group cannot agree
        assert!(Params::quorum_ok(1, 0));
    }

    #[test]
    fn zero_spread_rate_is_valid() {
        // §4.3 sweeps the spread rate down to 0.
        let p = Params::default().with_spread_rate(0.0);
        p.validate().unwrap();
    }
}
