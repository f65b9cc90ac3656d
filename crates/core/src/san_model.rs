//! The composed stochastic activity network of the paper's Figure 2.
//!
//! Structure (Figure 2(a)):
//!
//! ```text
//! Join1(
//!   Rep1(num_apps, Join2( Rep(num_reps, Replica), Management )),
//!   Rep2(num_domains, RepH(num_hosts, Host)),
//! )
//! ```
//!
//! The `Replica`, `Host`, and `Management` atomic SANs communicate through
//! globally shared places exactly as in the paper (§3.2–3.4), with one
//! robustness improvement: where the paper packs application identifiers
//! into bit-vector places (one bit per application, hence its 15-app
//! limit), this encoding uses one *counter place per application*
//! (`to_start_3`, `kill_clean_2`, …). Counters cannot lose concurrent
//! updates the way bit flips can, while keeping the same anonymous
//! hand-shake protocol: a host that starts/kills a replica increments the
//! application's counter, and *some* (uniformly chosen) matching Replica
//! submodel of that application consumes it — the paper's
//! "identical copies equally likely to fire first" rule. The
//! exchangeability of replica submodels makes the anonymous matching
//! distributionally equivalent to tracking identities.
//!
//! Spread levels are stored in tenths (integer places), so the paper's
//! system-wide spread variable 0.1 is representable exactly.
//!
//! The recovery activity of the Management SAN is timed with a very high
//! rate rather than instantaneous, which orders it after the zero-time
//! exclusion cascade — matching the direct DES implementation, which
//! performs exclusions before recoveries within one logical instant.

use crate::measures::Snapshot;
use crate::params::{ManagementScheme, Params, ParamsError, PlacementConstraint};
use itua_san::compose::{ComposedModel, Node, SanTemplate, SharedPlace, SubnetBuilder};
use itua_san::marking::{Marking, PlaceId};
use itua_san::model::{San, SanError};
use std::sync::Arc;

/// Rate standing in for "immediately after the zero-time response"
/// (mean 3.6 seconds on the one-hour time unit).
const RECOVERY_RATE: f64 = 1000.0;

/// Resolution of the integer spread-level places (tenths).
const SPREAD_SCALE: f64 = 10.0;

/// Handles to the places measures need, resolved on the flattened SAN.
#[derive(Debug, Clone)]
pub struct ItuaSanPlaces {
    /// Per application: `replicas_running`.
    pub running: Vec<PlaceId>,
    /// Per application: `rep_corr_undetected`.
    pub corrupt: Vec<PlaceId>,
    /// Number of excluded domains (system-wide counter).
    pub excluded_domains: PlaceId,
    /// Per domain: `dom_excluded` (1 once the domain is formally excluded).
    pub domain_excluded: Vec<PlaceId>,
    /// Per domain: `dom_active_hosts`.
    pub domain_active_hosts: Vec<PlaceId>,
    /// Per domain: `dom_excl_corrupt`, a measure-only accumulator counting
    /// hosts that were compromised (host OS or manager) when the domain
    /// exclusion shut them down. No predicate or rate reads it, so it never
    /// affects the dynamics. Note it cannot see replica-only corruption —
    /// a convicted replica leaves its host before the exclusion cascade —
    /// so it is a slight undercount relative to the DES measure.
    pub domain_excl_corrupt: Vec<PlaceId>,
    /// Per domain: `dom_corrupt_hosts`, the number of active hosts in the
    /// domain whose OS is currently compromised. Used by the rare-event
    /// importance level function.
    pub domain_corrupt_hosts: Vec<PlaceId>,
    /// Per domain: `dom_mgrs_corrupt`, the number of corrupt ITUA managers
    /// in the domain. Used by the rare-event importance level function.
    pub domain_mgrs_corrupt: Vec<PlaceId>,
}

impl ItuaSanPlaces {
    /// Whether application `a`'s service is improper in `marking`
    /// (Byzantine fault, or no replica running).
    pub fn improper(&self, marking: &Marking, a: usize) -> bool {
        let n = marking.get(self.running[a]);
        let c = marking.get(self.corrupt[a]);
        n == 0 || (c > 0 && 3 * c >= n)
    }

    /// Whether application `a` currently suffers a Byzantine fault.
    pub fn byzantine(&self, marking: &Marking, a: usize) -> bool {
        let n = marking.get(self.running[a]);
        let c = marking.get(self.corrupt[a]);
        c > 0 && 3 * c >= n
    }

    /// Mean fraction of applications with improper service.
    pub fn improper_fraction(&self, marking: &Marking) -> f64 {
        let hits = (0..self.running.len())
            .filter(|&a| self.improper(marking, a))
            .count();
        hits as f64 / self.running.len() as f64
    }

    /// The instant-of-time measures at `marking`, stamped `time`: the
    /// fraction of domains excluded, the mean running replicas per
    /// application, and the replicas per active host (0 when no host is
    /// active). The SAN simulator samples them; the analytic backend's
    /// reward vectors read them per state.
    pub fn snapshot(&self, time: f64, marking: &Marking) -> Snapshot {
        let running: i32 = self.running.iter().map(|&p| marking.get(p)).sum();
        let alive: i32 = self
            .domain_active_hosts
            .iter()
            .map(|&p| marking.get(p))
            .sum();
        Snapshot {
            time,
            frac_domains_excluded: marking.get(self.excluded_domains) as f64
                / self.domain_excluded.len() as f64,
            mean_replicas_running: running as f64 / self.running.len() as f64,
            load_per_host: if alive == 0 {
                0.0
            } else {
                running as f64 / alive as f64
            },
        }
    }
}

/// The flattened ITUA SAN together with its measure places.
#[derive(Debug, Clone)]
pub struct ItuaSan {
    /// The solvable flattened model.
    pub san: Arc<San>,
    /// Resolved measure places.
    pub places: ItuaSanPlaces,
    /// The parameters the model was built from.
    pub params: Params,
}

/// Builds the composed ITUA SAN for `params`.
///
/// # Errors
///
/// Returns [`ParamsError`] wrapped in [`SanError::BadValue`]… no — returns
/// [`SanError`] for construction problems; parameters are validated first
/// and invalid parameters surface as [`BuildError::Params`].
pub fn build(params: &Params) -> Result<ItuaSan, BuildError> {
    params.validate().map_err(BuildError::Params)?;
    let p = Arc::new(params.clone());
    let num_apps = p.num_apps;

    // ---- shared place inventories -------------------------------------
    let mut global_shared = Vec::new();
    for a in 0..num_apps {
        // Initial placement: every application starts with `reps_per_app`
        // replicas waiting for hosts.
        global_shared.push(SharedPlace::new(
            format!("to_start_{a}"),
            p.reps_per_app as i32,
        ));
        for name in [
            "started_clean",
            "started_corrupt",
            "affected",
            "kill_clean",
            "kill_corrupt",
            "rep_detected_clean",
            "rep_detected_corrupt",
        ] {
            global_shared.push(SharedPlace::new(format!("{name}_{a}"), 0));
        }
    }
    global_shared.push(SharedPlace::new("mgrs_active_sys", p.total_hosts() as i32));
    global_shared.push(SharedPlace::new("mgrs_corrupt_sys", 0));
    global_shared.push(SharedPlace::new("excluded_domains_sys", 0));
    global_shared.push(SharedPlace::new("sys_spread_level", 0));

    let app_shared = vec![
        SharedPlace::new("replicas_running", 0),
        SharedPlace::new("rep_corr_undetected", 0),
        SharedPlace::new("need_recovery", 0),
    ];

    let mut domain_shared = vec![
        SharedPlace::new("dom_excluding", 0),
        SharedPlace::new("dom_excluded", 0),
        SharedPlace::new("dom_active_hosts", p.hosts_per_domain as i32),
        SharedPlace::new("dom_mgrs_active", p.hosts_per_domain as i32),
        SharedPlace::new("dom_mgrs_corrupt", 0),
        SharedPlace::new("dom_corrupt_hosts", 0),
        SharedPlace::new("dom_spread_level", 0),
        SharedPlace::new("dom_excl_corrupt", 0),
    ];
    for a in 0..num_apps {
        domain_shared.push(SharedPlace::new(format!("dom_has_app_{a}"), 0));
    }

    // ---- composed-model tree (Figure 2(a)) -----------------------------
    let replica_tpl: Arc<dyn SanTemplate> = Arc::new(ReplicaTemplate { p: p.clone() });
    let mgmt_tpl: Arc<dyn SanTemplate> = Arc::new(ManagementTemplate);
    let host_tpl: Arc<dyn SanTemplate> = Arc::new(HostTemplate { p: p.clone() });

    let tree = Node::join(
        "itua",
        global_shared,
        vec![
            Node::rep(
                "apps",
                num_apps,
                vec![],
                Node::join(
                    "app",
                    app_shared,
                    vec![
                        Node::rep(
                            "replicas",
                            p.reps_per_app,
                            vec![],
                            Node::atomic("replica", replica_tpl),
                        ),
                        Node::atomic("mgmt", mgmt_tpl),
                    ],
                ),
            ),
            Node::rep(
                "domains",
                p.num_domains,
                vec![],
                Node::rep(
                    "hosts",
                    p.hosts_per_domain,
                    domain_shared,
                    Node::atomic("host", host_tpl),
                ),
            ),
        ],
    );

    let san = ComposedModel::new("itua", tree)
        .flatten()
        .map_err(BuildError::San)?;

    // Resolve measure places on the flattened model.
    let mut running = Vec::with_capacity(num_apps);
    let mut corrupt = Vec::with_capacity(num_apps);
    for a in 0..num_apps {
        running.push(
            san.place_id(&format!("itua/apps[{a}]/app/replicas_running"))
                .expect("replicas_running place exists"),
        );
        corrupt.push(
            san.place_id(&format!("itua/apps[{a}]/app/rep_corr_undetected"))
                .expect("rep_corr_undetected place exists"),
        );
    }
    let excluded_domains = san
        .place_id("itua/excluded_domains_sys")
        .expect("excluded_domains_sys place exists");
    let mut domain_excluded = Vec::with_capacity(p.num_domains);
    let mut domain_active_hosts = Vec::with_capacity(p.num_domains);
    let mut domain_excl_corrupt = Vec::with_capacity(p.num_domains);
    let mut domain_corrupt_hosts = Vec::with_capacity(p.num_domains);
    let mut domain_mgrs_corrupt = Vec::with_capacity(p.num_domains);
    for d in 0..p.num_domains {
        domain_excluded.push(
            san.place_id(&format!("itua/domains[{d}]/hosts/dom_excluded"))
                .expect("dom_excluded place exists"),
        );
        domain_active_hosts.push(
            san.place_id(&format!("itua/domains[{d}]/hosts/dom_active_hosts"))
                .expect("dom_active_hosts place exists"),
        );
        domain_excl_corrupt.push(
            san.place_id(&format!("itua/domains[{d}]/hosts/dom_excl_corrupt"))
                .expect("dom_excl_corrupt place exists"),
        );
        domain_corrupt_hosts.push(
            san.place_id(&format!("itua/domains[{d}]/hosts/dom_corrupt_hosts"))
                .expect("dom_corrupt_hosts place exists"),
        );
        domain_mgrs_corrupt.push(
            san.place_id(&format!("itua/domains[{d}]/hosts/dom_mgrs_corrupt"))
                .expect("dom_mgrs_corrupt place exists"),
        );
    }

    Ok(ItuaSan {
        san,
        places: ItuaSanPlaces {
            running,
            corrupt,
            excluded_domains,
            domain_excluded,
            domain_active_hosts,
            domain_excl_corrupt,
            domain_corrupt_hosts,
            domain_mgrs_corrupt,
        },
        params: params.clone(),
    })
}

/// Error from building the ITUA SAN.
#[derive(Debug)]
pub enum BuildError {
    /// The parameter set was invalid.
    Params(ParamsError),
    /// The SAN construction failed (internal error).
    San(SanError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Params(e) => write!(f, "{e}"),
            BuildError::San(e) => write!(f, "SAN construction failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

// ---------------------------------------------------------------------
// Replica atomic SAN (paper §3.2, Figure 2(b))
// ---------------------------------------------------------------------

struct ReplicaTemplate {
    p: Arc<Params>,
}

impl SanTemplate for ReplicaTemplate {
    fn build(&self, b: &mut SubnetBuilder<'_>) -> Result<(), SanError> {
        let p = &self.p;
        let a = b.rep_indices()[0]; // which application this replica belongs to

        // Local state.
        let has_started = b.place("has_started", 0);
        let host_corrupt = b.place("host_corrupt", 0);
        let corrupted = b.place("replica_attacked", 0);
        let convicted = b.place("convicted", 0);
        let ids_flag = b.place("ids_will_detect", 0);

        // Application-level shared state.
        let running = b.place("replicas_running", 0);
        let corr = b.place("rep_corr_undetected", 0);
        let need_recovery = b.place("need_recovery", 0);

        // Global handshake counters for this application.
        let started_clean = b.place(&format!("started_clean_{a}"), 0);
        let started_corrupt = b.place(&format!("started_corrupt_{a}"), 0);
        let affected = b.place(&format!("affected_{a}"), 0);
        let kill_clean = b.place(&format!("kill_clean_{a}"), 0);
        let kill_corrupt = b.place(&format!("kill_corrupt_{a}"), 0);
        let det_clean = b.place(&format!("rep_detected_clean_{a}"), 0);
        let det_corrupt = b.place(&format!("rep_detected_corrupt_{a}"), 0);

        // enable_rep: one idle replica submodel claims a start notice
        // published by a host (paper: "one of the Replica submodels … is
        // randomly chosen to be the replica started").
        for (name, pool, corrupt_host) in [
            ("enable_rep_clean", started_clean, 0),
            ("enable_rep_corrupt", started_corrupt, 1),
        ] {
            b.instantaneous_activity(name)
                .input_arc(pool, 1)
                .predicate(&[has_started], move |m| m.get(has_started) == 0)
                .input_gate(
                    &[],
                    |_| true,
                    move |m| {
                        m.set(has_started, 1);
                        m.set(host_corrupt, corrupt_host);
                        m.add(running, 1);
                    },
                )
                .build()?;
        }

        // prop_host_corr: the replica's host has been corrupted.
        b.instantaneous_activity("prop_host_corr")
            .input_arc(affected, 1)
            .predicate(&[has_started, host_corrupt], move |m| {
                m.get(has_started) == 1 && m.get(host_corrupt) == 0
            })
            .input_gate(&[], |_| true, move |m| m.set(host_corrupt, 1))
            .build()?;

        // attack_rep: successful attack on the replica. Two cases: the IDS
        // will eventually detect it (p = detect_replica) or never will.
        let base_rate = p.replica_attack_rate();
        let corrupt_rate = p.corrupt_host_replica_rate();
        let rate_deps = [has_started, corrupted, host_corrupt];
        let hs = has_started;
        let co = corrupted;
        let hc = host_corrupt;
        b.timed_activity_fn(
            "attack_rep",
            Arc::new(move |m| {
                if m.get(hs) == 1 && m.get(co) == 0 {
                    if m.get(hc) == 1 {
                        corrupt_rate
                    } else {
                        base_rate
                    }
                } else {
                    0.0
                }
            }),
            &rate_deps,
        )
        .predicate(&[has_started, corrupted], move |m| {
            m.get(hs) == 1 && m.get(co) == 0
        })
        .case(p.detect_replica, move |m| {
            m.set(co, 1);
            m.add(corr, 1);
            m.set(ids_flag, 1);
        })
        .case(1.0 - p.detect_replica, move |m| {
            m.set(co, 1);
            m.add(corr, 1);
        })
        .build()?;

        // Conviction channels. Each uses the same output: the replica is
        // convicted, leaves the group, and the conviction is reported to
        // the host layer (carrying the host-corruption state so the right
        // host consumes it).
        let convict = move |m: &mut Marking| {
            m.set(convicted, 0); // transient marker, reset below
            m.add(corr, -1);
            m.add(running, -1);
            m.add(need_recovery, 1);
            if m.get(host_corrupt) == 1 {
                m.add(det_corrupt, 1);
            } else {
                m.add(det_clean, 1);
            }
            // Reset the slot so it can host a future replica.
            m.set(has_started, 0);
            m.set(host_corrupt, 0);
            m.set(corrupted, 0);
            m.set(ids_flag, 0);
        };

        // valid_ID: IDS detection (pre-decided by the attack case).
        b.timed_activity_fn(
            "valid_ID",
            Arc::new({
                let ids = p.ids_rate;
                move |_| ids
            }),
            &[],
        )
        .predicate(&[ids_flag, corrupted, convicted, has_started], move |m| {
            m.get(ids_flag) == 1 && m.get(corrupted) == 1 && m.get(has_started) == 1
        })
        .input_gate(&[], |_| true, convict)
        .build()?;

        // false_ID: the paper-literal replica false-alarm channel, enabled
        // only once the replica has actually been intruded.
        let fa_rate = p.replica_false_alarm_rate();
        if fa_rate > 0.0 {
            b.timed_activity("false_ID", fa_rate)
                .predicate(&[corrupted, has_started], move |m| {
                    m.get(corrupted) == 1 && m.get(has_started) == 1
                })
                .input_gate(&[], |_| true, convict)
                .build()?;
        }

        // rep_misbehave: conviction by the replication group, possible only
        // while fewer than a third of the running replicas are corrupt.
        b.timed_activity("rep_misbehave", p.misbehave_rate)
            .predicate(&[corrupted, has_started, running, corr], move |m| {
                m.get(corrupted) == 1 && m.get(has_started) == 1 && 3 * m.get(corr) < m.get(running)
            })
            .input_gate(&[], |_| true, convict)
            .build()?;

        // kill_replica: this host/domain is being shut down.
        for (name, pool, flag) in [
            ("kill_replica_clean", kill_clean, 0),
            ("kill_replica_corrupt", kill_corrupt, 1),
        ] {
            b.instantaneous_activity(name)
                .input_arc(pool, 1)
                .predicate(&[has_started, host_corrupt], move |m| {
                    m.get(has_started) == 1 && m.get(host_corrupt) == flag
                })
                .input_gate(
                    &[],
                    |_| true,
                    move |m| {
                        if m.get(corrupted) == 1 {
                            m.add(corr, -1);
                        }
                        m.add(running, -1);
                        m.add(need_recovery, 1);
                        m.set(has_started, 0);
                        m.set(host_corrupt, 0);
                        m.set(corrupted, 0);
                        m.set(ids_flag, 0);
                    },
                )
                .build()?;
        }

        Ok(())
    }
}

// ---------------------------------------------------------------------
// Management atomic SAN (paper §3.3, Figure 2(c))
// ---------------------------------------------------------------------

struct ManagementTemplate;

impl SanTemplate for ManagementTemplate {
    fn build(&self, b: &mut SubnetBuilder<'_>) -> Result<(), SanError> {
        let a = b.rep_indices()[0];
        let need_recovery = b.place("need_recovery", 0);
        let to_start = b.place(&format!("to_start_{a}"), 0);
        let mgrs_active = b.place("mgrs_active_sys", 0);
        let mgrs_corrupt = b.place("mgrs_corrupt_sys", 0);

        // recovery: managers decide to start a replacement replica,
        // possible only with enough good managers system-wide.
        b.timed_activity("recovery", RECOVERY_RATE)
            .input_arc(need_recovery, 1)
            .predicate(&[mgrs_active, mgrs_corrupt], move |m| {
                3 * m.get(mgrs_corrupt) < m.get(mgrs_active)
            })
            .output_arc(to_start, 1)
            .build()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Host atomic SAN (paper §3.4, Figure 2(d))
// ---------------------------------------------------------------------

struct HostTemplate {
    p: Arc<Params>,
}

impl SanTemplate for HostTemplate {
    fn build(&self, b: &mut SubnetBuilder<'_>) -> Result<(), SanError> {
        let p = self.p.clone();
        let num_apps = p.num_apps;
        let host_scheme = p.scheme == ManagementScheme::HostExclusion;

        // Local state.
        let active = b.place("host_active", 1);
        let corrupt = b.place("host_corrupt", 0);
        let ids_host = b.place("ids_will_detect_host", 0);
        let mgr_active = b.place("mgr_active", 1);
        let mgr_corrupt = b.place("mgr_corrupt_local", 0);
        let ids_mgr = b.place("ids_will_detect_mgr", 0);
        let spread_dom_done = b.place("spread_domain_done", 0);
        let spread_sys_done = b.place("spread_system_done", 0);
        // Host-exclusion variant: a local shutdown token (the paper: the
        // exclusion places "were made local to the Host SAN").
        let self_excluding = b.place("self_excluding", 0);
        let has_app: Vec<PlaceId> = (0..num_apps)
            .map(|a| b.place(&format!("has_app_{a}"), 0))
            .collect();

        // Domain-level shared state.
        let dom_excluding = b.place("dom_excluding", 0);
        let dom_excluded = b.place("dom_excluded", 0);
        let dom_hosts = b.place("dom_active_hosts", 0);
        let dom_mgrs = b.place("dom_mgrs_active", 0);
        let dom_mgrs_corr = b.place("dom_mgrs_corrupt", 0);
        let dom_corrupt_hosts = b.place("dom_corrupt_hosts", 0);
        let dom_spread = b.place("dom_spread_level", 0);
        let dom_excl_corrupt = b.place("dom_excl_corrupt", 0);
        let dom_has_app: Vec<PlaceId> = (0..num_apps)
            .map(|a| b.place(&format!("dom_has_app_{a}"), 0))
            .collect();

        // Global shared state.
        let mgrs_active_sys = b.place("mgrs_active_sys", 0);
        let mgrs_corrupt_sys = b.place("mgrs_corrupt_sys", 0);
        let excluded_domains = b.place("excluded_domains_sys", 0);
        let sys_spread = b.place("sys_spread_level", 0);
        let to_start: Vec<PlaceId> = (0..num_apps)
            .map(|a| b.place(&format!("to_start_{a}"), 0))
            .collect();
        let started_clean: Vec<PlaceId> = (0..num_apps)
            .map(|a| b.place(&format!("started_clean_{a}"), 0))
            .collect();
        let started_corrupt: Vec<PlaceId> = (0..num_apps)
            .map(|a| b.place(&format!("started_corrupt_{a}"), 0))
            .collect();
        let affected: Vec<PlaceId> = (0..num_apps)
            .map(|a| b.place(&format!("affected_{a}"), 0))
            .collect();
        let kill_clean: Vec<PlaceId> = (0..num_apps)
            .map(|a| b.place(&format!("kill_clean_{a}"), 0))
            .collect();
        let kill_corrupt: Vec<PlaceId> = (0..num_apps)
            .map(|a| b.place(&format!("kill_corrupt_{a}"), 0))
            .collect();
        let det_clean: Vec<PlaceId> = (0..num_apps)
            .map(|a| b.place(&format!("rep_detected_clean_{a}"), 0))
            .collect();
        let det_corrupt: Vec<PlaceId> = (0..num_apps)
            .map(|a| b.place(&format!("rep_detected_corrupt_{a}"), 0))
            .collect();

        // Quorum predicates shared by several gates.
        let dom_group_ok = move |m: &Marking| 3 * m.get(dom_mgrs_corr) < m.get(dom_mgrs);
        let sys_quorum_ok = move |m: &Marking| 3 * m.get(mgrs_corrupt_sys) < m.get(mgrs_active_sys);

        // Triggering an exclusion: domain scheme places a token in the
        // domain's `exclude_domain`; host scheme shuts only this host.
        let trigger_exclusion = move |m: &mut Marking| {
            if host_scheme {
                if m.get(self_excluding) == 0 && m.get(active) == 1 {
                    m.set(self_excluding, 1);
                }
            } else if m.get(dom_excluding) == 0 && m.get(dom_excluded) == 0 {
                m.set(dom_excluding, 1);
            }
        };

        // attack_host: three categories × (detected | missed) = 6 cases.
        let mix = p.attack_mix;
        let host_rate = p.host_attack_rate();
        let effect_d = p.spread_effect_domain / SPREAD_SCALE;
        let effect_s = p.spread_effect_system / SPREAD_SCALE;
        let corrupt_effect = {
            let has_app = has_app.clone();
            let affected = affected.clone();
            move |m: &mut Marking| {
                m.set(corrupt, 1);
                m.add(dom_corrupt_hosts, 1);
                for a in 0..num_apps {
                    if m.get(has_app[a]) == 1 {
                        m.add(affected[a], 1);
                    }
                }
            }
        };
        {
            let mut ab = b.timed_activity_fn(
                "attack_host",
                Arc::new(move |m| {
                    host_rate
                        * (1.0
                            + effect_d * m.get(dom_spread) as f64
                            + effect_s * m.get(sys_spread) as f64)
                }),
                &[dom_spread, sys_spread],
            );
            ab = ab.predicate(&[active, corrupt], move |m| {
                m.get(active) == 1 && m.get(corrupt) == 0
            });
            for (pc, pd) in [
                (mix.p_script, mix.detect_script),
                (mix.p_exploratory, mix.detect_exploratory),
                (mix.p_innovative, mix.detect_innovative),
            ] {
                let eff = corrupt_effect.clone();
                ab = ab.case(pc * pd, move |m| {
                    eff(m);
                    m.set(ids_host, 1);
                });
                let eff = corrupt_effect.clone();
                ab = ab.case(pc * (1.0 - pd), move |m| {
                    eff(m);
                });
            }
            ab.build()?;
        }

        // valid_ID_{scp,exp,inv} are folded into one detection activity:
        // the category only affected the detection *probability*, which was
        // already decided by the attack case above.
        b.timed_activity("valid_ID_host", p.ids_rate)
            .predicate(&[ids_host, corrupt, active], move |m| {
                m.get(ids_host) == 1 && m.get(corrupt) == 1 && m.get(active) == 1
            })
            .input_gate(
                &[mgr_active, mgr_corrupt, dom_mgrs, dom_mgrs_corr],
                |_| true,
                move |m| {
                    m.set(ids_host, 0);
                    if m.get(mgr_active) == 1 && m.get(mgr_corrupt) == 0 && dom_group_ok(m) {
                        trigger_exclusion(m);
                    }
                },
            )
            .build()?;

        // false_ID: false alarms while there has been no actual intrusion.
        let fa = p.host_false_alarm_rate();
        if fa > 0.0 {
            b.timed_activity("false_ID_host", fa)
                .predicate(&[active, corrupt], move |m| {
                    m.get(active) == 1 && m.get(corrupt) == 0
                })
                .input_gate(
                    &[mgr_active, mgr_corrupt, dom_mgrs, dom_mgrs_corr],
                    |_| true,
                    move |m| {
                        if m.get(mgr_active) == 1 && m.get(mgr_corrupt) == 0 && dom_group_ok(m) {
                            trigger_exclusion(m);
                        }
                    },
                )
                .build()?;
        }

        // attack_mgmt: attack on the manager; faster once the host is
        // corrupt (local escalation channel).
        let mgr_base = p.manager_attack_rate();
        let mgr_hot = p.corrupt_host_manager_rate();
        b.timed_activity_fn(
            "attack_mgmt",
            Arc::new(move |m| {
                if m.get(corrupt) == 1 {
                    mgr_hot
                } else {
                    mgr_base
                }
            }),
            &[corrupt],
        )
        .predicate(&[active, mgr_active, mgr_corrupt], move |m| {
            m.get(active) == 1 && m.get(mgr_active) == 1 && m.get(mgr_corrupt) == 0
        })
        .case(p.detect_manager, move |m| {
            m.set(mgr_corrupt, 1);
            m.add(dom_mgrs_corr, 1);
            m.add(mgrs_corrupt_sys, 1);
            m.set(ids_mgr, 1);
        })
        .case(1.0 - p.detect_manager, move |m| {
            m.set(mgr_corrupt, 1);
            m.add(dom_mgrs_corr, 1);
            m.add(mgrs_corrupt_sys, 1);
        })
        .build()?;

        // valid_ID_mgr: detection of the corrupt manager; the response goes
        // through the rest of the domain group or the system-wide group.
        b.timed_activity("valid_ID_mgr", p.ids_rate)
            .predicate(&[ids_mgr, mgr_corrupt, mgr_active, active], move |m| {
                m.get(ids_mgr) == 1
                    && m.get(mgr_corrupt) == 1
                    && m.get(mgr_active) == 1
                    && m.get(active) == 1
            })
            .input_gate(
                &[dom_mgrs, dom_mgrs_corr, mgrs_active_sys, mgrs_corrupt_sys],
                |_| true,
                move |m| {
                    m.set(ids_mgr, 0);
                    if dom_group_ok(m) || sys_quorum_ok(m) {
                        trigger_exclusion(m);
                    }
                },
            )
            .build()?;

        // start_replica (one activity per application): claim a pending
        // replica start if this host and domain are eligible. All eligible
        // copies race uniformly — the paper's random placement.
        for a in 0..num_apps {
            let ts = to_start[a];
            let ha = has_app[a];
            let dha = dom_has_app[a];
            let sc = started_clean[a];
            let scor = started_corrupt[a];
            let one_per_domain = p.placement == PlacementConstraint::OnePerDomain;
            b.instantaneous_activity(&format!("start_replica_{a}"))
                .input_arc(ts, 1)
                .predicate(&[active, ha, dha, dom_excluded, dom_excluding], move |m| {
                    m.get(active) == 1
                        && m.get(ha) == 0
                        && m.get(dom_excluded) == 0
                        && m.get(dom_excluding) == 0
                        && (!one_per_domain || m.get(dha) == 0)
                })
                .input_gate(
                    &[],
                    |_| true,
                    move |m| {
                        m.set(ha, 1);
                        m.add(dha, 1);
                        if m.get(corrupt) == 1 {
                            m.add(scor, 1);
                        } else {
                            m.add(sc, 1);
                        }
                    },
                )
                .build()?;
        }

        // affect_host / shut_host: consume a replica-conviction notice if
        // this host matches (has the application, same corruption state),
        // then respond by excluding the domain (or this host) if the
        // managers can.
        for a in 0..num_apps {
            for (name, pool, flag) in [
                (format!("respond_rep_detect_clean_{a}"), det_clean[a], 0),
                (format!("respond_rep_detect_corrupt_{a}"), det_corrupt[a], 1),
            ] {
                let ha = has_app[a];
                let dha = dom_has_app[a];
                b.instantaneous_activity(&name)
                    .input_arc(pool, 1)
                    .predicate(&[active, ha, corrupt], move |m| {
                        m.get(active) == 1 && m.get(ha) == 1 && m.get(corrupt) == flag
                    })
                    .input_gate(
                        &[],
                        |_| true,
                        move |m| {
                            // The convicted replica has left this host.
                            m.set(ha, 0);
                            m.add(dha, -1);
                            if dom_group_ok(m) || sys_quorum_ok(m) {
                                trigger_exclusion(m);
                            }
                        },
                    )
                    .build()?;
            }
        }

        // shut_host: this host shuts down because its domain is being
        // excluded (domain scheme) or it was individually convicted (host
        // scheme). Kills all its replicas and its manager.
        {
            let has_app_v = has_app.clone();
            let dom_has_app_v = dom_has_app.clone();
            let kill_clean_v = kill_clean.clone();
            let kill_corrupt_v = kill_corrupt.clone();
            let mut reads = vec![active, dom_excluding, self_excluding];
            reads.push(corrupt);
            b.instantaneous_activity("shut_host")
                .predicate(&reads, move |m| {
                    m.get(active) == 1 && (m.get(dom_excluding) == 1 || m.get(self_excluding) == 1)
                })
                .input_gate(
                    &[],
                    |_| true,
                    move |m| {
                        // Measure bookkeeping (read before any resets): when
                        // the shutdown is part of a domain exclusion, count
                        // this host toward the "corrupt at exclusion"
                        // fraction if its OS or manager was compromised.
                        let host_was_corrupt = m.get(corrupt) == 1;
                        if m.get(dom_excluding) == 1
                            && (host_was_corrupt || m.get(mgr_corrupt) == 1)
                        {
                            m.add(dom_excl_corrupt, 1);
                        }
                        m.set(active, 0);
                        m.set(self_excluding, 0);
                        m.add(dom_hosts, -1);
                        if host_was_corrupt {
                            m.add(dom_corrupt_hosts, -1);
                        }
                        for a in 0..num_apps {
                            if m.get(has_app_v[a]) == 1 {
                                m.set(has_app_v[a], 0);
                                m.add(dom_has_app_v[a], -1);
                                if host_was_corrupt {
                                    m.add(kill_corrupt_v[a], 1);
                                } else {
                                    m.add(kill_clean_v[a], 1);
                                }
                            }
                        }
                        if m.get(mgr_active) == 1 {
                            m.set(mgr_active, 0);
                            m.add(dom_mgrs, -1);
                            m.add(mgrs_active_sys, -1);
                            if m.get(mgr_corrupt) == 1 {
                                m.set(mgr_corrupt, 0);
                                m.add(dom_mgrs_corr, -1);
                                m.add(mgrs_corrupt_sys, -1);
                            }
                        }
                    },
                )
                .build()?;
        }

        // finish_exclusion: once every host of the domain is down, the
        // domain is formally excluded (fires once; the copies race for the
        // token).
        if !host_scheme {
            b.instantaneous_activity("finish_exclusion")
                .input_arc(dom_excluding, 1)
                .predicate(&[dom_hosts], move |m| m.get(dom_hosts) == 0)
                .input_gate(
                    &[],
                    |_| true,
                    move |m| {
                        m.set(dom_excluded, 1);
                        m.add(excluded_domains, 1);
                    },
                )
                .build()?;
        }

        // propagate_domain / propagate_sys: one-shot attack-learning
        // events from a corrupt host. The spread variable doubles as the
        // activity rate and the level increment (paper §3.4); levels are
        // stored in tenths.
        if p.spread_rate_domain > 0.0 {
            #[expect(
                clippy::disallowed_methods,
                reason = "spread rates are scaled by SPREAD_SCALE and rounded once at build time to \
                          integer token increments; documented model encoding, identical every run"
            )]
            let inc = (p.spread_rate_domain * SPREAD_SCALE).round() as i32;
            b.timed_activity("propagate_domain", p.spread_rate_domain)
                .predicate(&[corrupt, active, spread_dom_done], move |m| {
                    m.get(corrupt) == 1 && m.get(active) == 1 && m.get(spread_dom_done) == 0
                })
                .input_gate(
                    &[],
                    |_| true,
                    move |m| {
                        m.set(spread_dom_done, 1);
                        m.add(dom_spread, inc);
                    },
                )
                .build()?;
        }
        if p.spread_rate_system > 0.0 {
            #[expect(
                clippy::disallowed_methods,
                reason = "spread rates are scaled by SPREAD_SCALE and rounded once at build time to \
                          integer token increments; documented model encoding, identical every run"
            )]
            let inc = (p.spread_rate_system * SPREAD_SCALE).round().max(1.0) as i32;
            b.timed_activity("propagate_sys", p.spread_rate_system)
                .predicate(&[corrupt, active, spread_sys_done], move |m| {
                    m.get(corrupt) == 1 && m.get(active) == 1 && m.get(spread_sys_done) == 0
                })
                .input_gate(
                    &[],
                    |_| true,
                    move |m| {
                        m.set(spread_sys_done, 1);
                        m.add(sys_spread, inc);
                    },
                )
                .build()?;
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itua_san::simulator::SanSimulator;

    fn small_params() -> Params {
        Params::default().with_domains(3, 2).with_applications(2, 3)
    }

    #[test]
    fn builds_and_has_expected_structure() {
        let model = build(&small_params()).unwrap();
        let san = &model.san;
        // Per-app measure places resolved.
        assert_eq!(model.places.running.len(), 2);
        // Replica submodels: 2 apps × 3 replicas, each with (at least) an
        // attack activity.
        let attack_reps = san
            .activities()
            .filter(|(_, a)| a.name().ends_with("/attack_rep"))
            .count();
        assert_eq!(attack_reps, 6);
        let hosts = san
            .activities()
            .filter(|(_, a)| a.name().ends_with("/attack_host"))
            .count();
        assert_eq!(hosts, 6);
        let recoveries = san
            .activities()
            .filter(|(_, a)| a.name().ends_with("/recovery"))
            .count();
        assert_eq!(recoveries, 2);
    }

    #[test]
    fn initial_placement_starts_all_replicas() {
        let model = build(&small_params()).unwrap();
        let sim = SanSimulator::new(model.san.clone());

        struct Check {
            running: Vec<PlaceId>,
            values: Vec<i32>,
        }
        impl itua_san::simulator::Observer for Check {
            fn on_init(&mut self, _t: f64, m: &Marking) {
                self.values = self.running.iter().map(|&p| m.get(p)).collect();
            }
        }
        let mut check = Check {
            running: model.places.running.clone(),
            values: vec![],
        };
        sim.run(1, 0.0, &mut check).unwrap();
        // 3 domains ≥ 3 replicas per app → all start.
        assert_eq!(check.values, vec![3, 3]);
    }

    #[test]
    fn placement_limited_by_domains() {
        // 2 domains but 3 replicas requested → only 2 start per app.
        let params = Params::default().with_domains(2, 2).with_applications(1, 3);
        let model = build(&params).unwrap();
        let sim = SanSimulator::new(model.san.clone());
        struct Check(PlaceId, i32);
        impl itua_san::simulator::Observer for Check {
            fn on_init(&mut self, _t: f64, m: &Marking) {
                self.1 = m.get(self.0);
            }
        }
        let mut check = Check(model.places.running[0], -1);
        sim.run(1, 0.0, &mut check).unwrap();
        assert_eq!(check.1, 2);
    }

    #[test]
    fn runs_to_horizon_without_errors() {
        let model = build(&small_params()).unwrap();
        let sim = SanSimulator::new(model.san.clone());
        for seed in 0..20 {
            sim.run(seed, 10.0, &mut ()).unwrap();
        }
    }

    #[test]
    fn marking_invariants_hold_during_simulation() {
        let model = build(&small_params()).unwrap();
        let sim = SanSimulator::new(model.san.clone());
        struct Inv {
            places: ItuaSanPlaces,
            total_hosts: i32,
        }
        impl itua_san::simulator::Observer for Inv {
            fn on_event(&mut self, _t: f64, _a: itua_san::model::ActivityId, m: &Marking) {
                for a in 0..self.places.running.len() {
                    let n = m.get(self.places.running[a]);
                    let c = m.get(self.places.corrupt[a]);
                    assert!(c <= n, "corrupt {c} > running {n}");
                }
                let e = m.get(self.places.excluded_domains);
                assert!(e >= 0 && e <= self.total_hosts);
            }
        }
        let mut inv = Inv {
            places: model.places.clone(),
            total_hosts: 3,
        };
        for seed in 0..30 {
            sim.run(seed, 15.0, &mut inv).unwrap();
        }
    }

    #[test]
    fn host_exclusion_variant_builds_and_runs() {
        let params = small_params().with_scheme(ManagementScheme::HostExclusion);
        let model = build(&params).unwrap();
        let sim = SanSimulator::new(model.san.clone());
        struct NoDomainExcluded(PlaceId);
        impl itua_san::simulator::Observer for NoDomainExcluded {
            fn on_end(&mut self, _t: f64, m: &Marking) {
                assert_eq!(m.get(self.0), 0, "host scheme must not exclude domains");
            }
        }
        for seed in 0..20 {
            let mut obs = NoDomainExcluded(model.places.excluded_domains);
            sim.run(seed, 10.0, &mut obs).unwrap();
        }
    }

    #[test]
    fn rejects_invalid_params() {
        let bad = Params::default().with_domains(0, 1);
        assert!(matches!(build(&bad), Err(BuildError::Params(_))));
    }
}
