//! Direct discrete-event simulation of the ITUA replication system.
//!
//! This encodes the same stochastic process as the SAN of
//! [`crate::san_model`], but with explicit state (hosts, domains, replicas,
//! managers) instead of places, which makes it both much faster and a
//! semantically independent implementation for cross-validation.
//!
//! The process (paper §2/§3; see `DESIGN.md` §3 for the operationalized
//! semantics):
//!
//! * Attacks arrive as Poisson processes per host, per running replica, and
//!   per manager. Host attacks fall into three categories (script-based /
//!   exploratory / innovative) with decreasing IDS detection probability.
//! * Host corruption doubles (configurable) the attack rate on the
//!   replicas and manager of that host, and spawns one-shot intra-domain
//!   and system-wide spread events that scale every host's attack rate.
//! * The IDS detects an intrusion (per-category probability) after an
//!   exponential latency, or misses it forever. It also raises false
//!   alarms on uncorrupted hosts; following the paper's SAN description,
//!   the replica-level false-alarm activity is enabled only once the
//!   replica is actually corrupt (an extra detection channel), while
//!   host-level false alarms fire only while the host is clean.
//! * A corrupt replica misbehaves during group communication at rate 2/h
//!   and is convicted by its replication group iff fewer than a third of
//!   the currently active replicas are corrupt.
//! * On conviction/detection, the management algorithm excludes the whole
//!   domain (or just the host, per [`ManagementScheme`]), provided the
//!   managers needed for the response are not themselves compromised, and
//!   restarts killed replicas in uniformly random eligible domains/hosts.

use crate::measures::{RunOutput, Snapshot};
use crate::params::{ManagementScheme, Params, ParamsError, PlacementConstraint};
use itua_rare::SplitBranch;
use itua_sim::queue::EventQueue;
use itua_sim::rng::Rng;
use itua_stats::timeweighted::TimeWeighted;

/// Host attack categories (Jonsson & Olovsson classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttackCategory {
    Script,
    Exploratory,
    Innovative,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Successful attack on a host's OS/services. Carries an epoch so that
    /// rate changes (spread) invalidate stale schedules.
    HostAttack { host: usize, epoch: u32 },
    /// IDS detects the host intrusion (pre-sampled success).
    HostDetect { host: usize },
    /// IDS false alarm on an uncorrupted host.
    HostFalseAlarm { host: usize },
    /// Successful attack on the manager of a host.
    MgrAttack { host: usize, epoch: u32 },
    /// IDS detects the manager intrusion.
    MgrDetect { host: usize },
    /// Successful attack on a running replica.
    RepAttack { replica: usize, epoch: u32 },
    /// IDS detects the replica corruption (valid_ID).
    RepDetect { replica: usize },
    /// Replica-level false-alarm channel (paper-literal: enabled once the
    /// replica is corrupt).
    RepFalseDetect { replica: usize },
    /// Corrupt replica misbehaves during group communication.
    RepMisbehave { replica: usize },
    /// One-shot intra-domain attack propagation from a corrupt host.
    SpreadDomain { host: usize },
    /// One-shot system-wide attack propagation from a corrupt host.
    SpreadSystem { host: usize },
}

#[derive(Debug, Clone)]
struct Host {
    domain: usize,
    /// False once the host is excluded.
    alive: bool,
    corrupt: bool,
    attack_epoch: u32,
    mgr_alive: bool,
    mgr_corrupt: bool,
    mgr_attack_epoch: u32,
    /// Indices into `replicas` of replicas currently placed here.
    replicas: Vec<usize>,
}

#[derive(Debug, Clone)]
struct Domain {
    excluded: bool,
    spread_level: f64,
    active_hosts: usize,
    active_mgrs: usize,
    corrupt_mgrs: usize,
}

#[derive(Debug, Clone)]
struct Replica {
    app: usize,
    host: usize,
    alive: bool,
    corrupt: bool,
    /// Convicted (by group or IDS): excluded from group communication and
    /// no longer counted as undetected-corrupt; remains in
    /// `replicas_running` until its host/domain is shut down (paper
    /// semantics).
    convicted: bool,
    attack_epoch: u32,
}

#[derive(Debug, Clone)]
struct App {
    running: usize,
    corrupt_undetected: usize,
    need_recovery: usize,
    improper: TimeWeighted,
    byzantine: bool,
}

/// The ITUA discrete-event model.
///
/// Create once per parameter set; every [`ItuaDes::run`] is an independent
/// replication fully determined by its seed.
#[derive(Debug, Clone)]
pub struct ItuaDes {
    params: Params,
}

/// Reusable per-thread simulation state, and the root branch of a RESTART
/// tree.
///
/// Holds the event queue, host/domain/replica/app vectors with their
/// occupancy counters, and the sample schedule, so a worker thread can
/// run many replications without reallocating them. A scratch is tied to
/// the parameter set it was created from ([`ItuaDes::scratch`]); reusing
/// it never changes results — every [`ItuaDes::begin`] fully resets the
/// state, so a run depends only on its seed, horizon and sample times.
///
/// Between [`ItuaDes::begin`] and [`itua_rare::SplitBranch::finish`] the
/// scratch is one in-flight trajectory: `itua_rare::run_tree` steps it in
/// place, and `Clone` deep-copies the entire mid-run state, including the
/// event queue and the run's RNG, when a split forks it.
#[derive(Clone)]
pub struct DesScratch {
    state: State,
    samples: Vec<f64>,
    next_sample: usize,
    snapshots: Vec<Snapshot>,
    horizon: f64,
}

/// Mutable simulation state for one run.
#[derive(Clone)]
struct State {
    p: Params,
    rng: Rng,
    queue: EventQueue<Event>,
    now: f64,
    hosts: Vec<Host>,
    domains: Vec<Domain>,
    replicas: Vec<Replica>,
    apps: Vec<App>,
    system_spread_level: f64,
    active_mgrs_total: usize,
    corrupt_mgrs_total: usize,
    excluded_domains: usize,
    exclusion_fractions: Vec<f64>,
    first_byzantine_time: Option<f64>,
    first_improper_time: Option<f64>,
    /// Live replicas of each app per domain, at `d * num_apps + app`.
    domain_app_live: Vec<usize>,
    /// Live replicas of each app per host, at `h * num_apps + app`.
    host_app_live: Vec<usize>,
    /// Placement candidates (domains, then hosts) of
    /// [`State::start_replica_somewhere`], reused across calls.
    candidates: Vec<usize>,
}

impl ItuaDes {
    /// Creates the model after validating `params`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] for invalid parameters.
    pub fn new(params: Params) -> Result<Self, ParamsError> {
        params.validate()?;
        Ok(ItuaDes { params })
    }

    /// The parameter set.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Creates a reusable scratch for [`ItuaDes::run_into`] and
    /// [`ItuaDes::begin`].
    pub fn scratch(&self) -> DesScratch {
        DesScratch {
            state: State::new(self.params.clone(), Rng::seed_from_u64(0)),
            samples: Vec::new(),
            next_sample: 0,
            snapshots: Vec::new(),
            horizon: 0.0,
        }
    }

    /// Runs one replication until `horizon`, sampling instant-of-time
    /// measures at `sample_times` (ascending; values beyond the horizon are
    /// clamped to it).
    ///
    /// Equivalent to [`ItuaDes::run_into`] with a fresh scratch; use that
    /// form to amortise state allocation across replications.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive and finite.
    pub fn run(&self, seed: u64, horizon: f64, sample_times: &[f64]) -> RunOutput {
        let mut scratch = self.scratch();
        self.run_into(seed, horizon, sample_times, &mut scratch)
    }

    /// Runs one replication, reusing `scratch`'s allocations.
    ///
    /// The scratch is reset first, so the output is byte-identical to
    /// [`ItuaDes::run`] with the same arguments, regardless of what the
    /// scratch was previously used for.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive and finite, or if `scratch` was
    /// created for a different topology (host/domain/app counts).
    pub fn run_into(
        &self,
        seed: u64,
        horizon: f64,
        sample_times: &[f64],
        scratch: &mut DesScratch,
    ) -> RunOutput {
        self.prepare(horizon, sample_times, scratch);
        self.begin(seed, scratch);
        while let Ok(true) = scratch.step() {}
        scratch.finish()
    }

    /// Sets the horizon and the sample schedule of the runs `scratch`
    /// starts next: sample times beyond the horizon are clamped to it.
    /// Every replication of a batch shares them, so a batch prepares once.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive and finite, or if `scratch` was
    /// created for a different topology (host/domain/app counts).
    pub fn prepare(&self, horizon: f64, sample_times: &[f64], scratch: &mut DesScratch) {
        assert!(horizon > 0.0 && horizon.is_finite(), "bad horizon");
        let st = &mut scratch.state;
        assert!(
            st.hosts.len() == self.params.total_hosts()
                && st.domains.len() == self.params.num_domains
                && st.apps.len() == self.params.num_apps,
            "scratch does not match this model's topology"
        );
        st.p = self.params.clone();
        clamp_sample_times(sample_times, horizon, &mut scratch.samples);
        scratch.horizon = horizon;
    }

    /// Resets `scratch` to the time-zero state of the replication seeded
    /// `seed`, on the horizon and sample schedule of the last
    /// [`ItuaDes::prepare`]: initial placement drawn, processes armed, no
    /// event fired yet. The scratch is then the root branch of the
    /// replication's RESTART tree.
    pub fn begin(&self, seed: u64, scratch: &mut DesScratch) {
        scratch.state.reset(Rng::seed_from_u64(seed));
        scratch.state.initial_placement();
        scratch.next_sample = 0;
        scratch.snapshots = Vec::with_capacity(scratch.samples.len());
    }
}

/// Clamps requested sample times into `out`: values beyond the horizon
/// collapse onto it, non-positive ones are dropped, and the result is
/// sorted and deduplicated — the schedule every run actually snapshots.
pub(crate) fn clamp_sample_times(sample_times: &[f64], horizon: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        sample_times
            .iter()
            .map(|&t| t.min(horizon))
            .filter(|&t| t > 0.0),
    );
    out.sort_by(|a, b| a.partial_cmp(b).expect("no NaN sample times"));
    out.dedup();
}

/// A DES run as one RESTART branch. Its importance level is the number of
/// domains that are excluded or contain any compromised host (host OS,
/// manager, or a live corrupt replica): the domains the intrusion has
/// already reached on its way to a Byzantine failure.
impl SplitBranch for DesScratch {
    type Output = RunOutput;
    type Error = std::convert::Infallible;

    /// Delivers due snapshots, then pops and handles the next event.
    /// Returns `Ok(false)` once the queue is drained or the next event
    /// lies beyond the horizon (setting the clock to the horizon).
    fn step(&mut self) -> Result<bool, Self::Error> {
        let st = &mut self.state;
        let next_time = st.queue.peek_time();
        let cutoff = match next_time {
            Some(t) if t <= self.horizon => t,
            _ => self.horizon,
        };
        while self.next_sample < self.samples.len() && self.samples[self.next_sample] <= cutoff {
            self.snapshots
                .push(st.snapshot(self.samples[self.next_sample]));
            self.next_sample += 1;
        }
        match next_time {
            Some(t) if t <= self.horizon => {
                let (t, ev) = st.queue.pop().expect("peeked");
                st.now = t;
                st.handle(ev);
                Ok(true)
            }
            _ => {
                st.now = self.horizon;
                Ok(false)
            }
        }
    }

    fn level(&self) -> u32 {
        let st = &self.state;
        let hpd = st.p.hosts_per_domain;
        (0..st.p.num_domains)
            .filter(|&d| {
                st.domains[d].excluded || (d * hpd..(d + 1) * hpd).any(|h| st.host_compromised(h))
            })
            .count() as u32
    }

    fn reseed(&mut self, seed: u64) {
        self.state.rng = Rng::seed_from_u64(seed);
        self.state.resample_pending();
    }

    fn survives(&mut self, p: f64) -> bool {
        self.state.rng.bernoulli(p)
    }

    fn finish(&mut self) -> RunOutput {
        let st = &self.state;
        let horizon = self.horizon;
        RunOutput {
            horizon,
            improper_time_per_app: st
                .apps
                .iter()
                .map(|a| a.improper.integral_until(horizon))
                .collect(),
            byzantine_per_app: st.apps.iter().map(|a| a.byzantine).collect(),
            // Copied, not taken, so the next run records into the
            // scratch's grown buffer.
            exclusion_corrupt_fractions: st.exclusion_fractions.clone(),
            snapshots: std::mem::take(&mut self.snapshots),
            first_byzantine_time: st.first_byzantine_time,
            first_improper_time: st.first_improper_time,
        }
    }
}

impl State {
    fn new(p: Params, rng: Rng) -> Self {
        let nh = p.total_hosts();
        let num_domains = p.num_domains;
        let num_apps = p.num_apps;
        let mut st = State {
            p,
            rng: Rng::seed_from_u64(0),
            queue: EventQueue::new(),
            now: 0.0,
            hosts: vec![
                Host {
                    domain: 0,
                    alive: true,
                    corrupt: false,
                    attack_epoch: 0,
                    mgr_alive: true,
                    mgr_corrupt: false,
                    mgr_attack_epoch: 0,
                    replicas: Vec::new(),
                };
                nh
            ],
            domains: vec![
                Domain {
                    excluded: false,
                    spread_level: 0.0,
                    active_hosts: 0,
                    active_mgrs: 0,
                    corrupt_mgrs: 0,
                };
                num_domains
            ],
            replicas: Vec::new(),
            apps: vec![
                App {
                    running: 0,
                    corrupt_undetected: 0,
                    need_recovery: 0,
                    improper: TimeWeighted::new(0.0, 1.0),
                    byzantine: false,
                };
                num_apps
            ],
            system_spread_level: 0.0,
            active_mgrs_total: 0,
            corrupt_mgrs_total: 0,
            excluded_domains: 0,
            exclusion_fractions: Vec::new(),
            first_byzantine_time: None,
            first_improper_time: None,
            domain_app_live: vec![0; num_domains * num_apps],
            host_app_live: vec![0; nh * num_apps],
            candidates: Vec::new(),
        };
        st.reset(rng);
        st
    }

    /// Restores the pristine time-zero state (the one [`State::new`]
    /// produces) while keeping every allocation: the event queue's backing
    /// storage, the per-host replica index vectors, the replica arena, the
    /// occupancy counters and the placement candidates.
    ///
    /// Replication independence relies on this being a *complete* reset:
    /// any field mutated during a run must be restored here, so that a
    /// subsequent run's trajectory depends only on the fresh `rng`.
    fn reset(&mut self, rng: Rng) {
        let hpd = self.p.hosts_per_domain;
        self.rng = rng;
        self.queue.clear();
        self.now = 0.0;
        for (h, host) in self.hosts.iter_mut().enumerate() {
            host.domain = h / hpd;
            host.alive = true;
            host.corrupt = false;
            host.attack_epoch = 0;
            host.mgr_alive = true;
            host.mgr_corrupt = false;
            host.mgr_attack_epoch = 0;
            host.replicas.clear();
        }
        for dom in &mut self.domains {
            dom.excluded = false;
            dom.spread_level = 0.0;
            dom.active_hosts = hpd;
            dom.active_mgrs = hpd;
            dom.corrupt_mgrs = 0;
        }
        self.replicas.clear();
        for app in &mut self.apps {
            app.running = 0;
            app.corrupt_undetected = 0;
            app.need_recovery = 0;
            app.improper = TimeWeighted::new(0.0, 1.0); // no replicas yet
            app.byzantine = false;
        }
        self.system_spread_level = 0.0;
        self.active_mgrs_total = self.hosts.len();
        self.corrupt_mgrs_total = 0;
        self.excluded_domains = 0;
        self.exclusion_fractions.clear();
        self.first_byzantine_time = None;
        self.first_improper_time = None;
        self.domain_app_live.fill(0);
        self.host_app_live.fill(0);
    }

    // ------------------------------------------------------------------
    // Initialization
    // ------------------------------------------------------------------

    fn initial_placement(&mut self) {
        // Place replicas app by app via the same random algorithm the
        // managers use for recovery.
        for app in 0..self.p.num_apps {
            for _ in 0..self.p.reps_per_app {
                if !self.start_replica_somewhere(app) {
                    break; // ran out of eligible domains (e.g. D < R)
                }
            }
        }
        // Arm the per-host processes.
        for h in 0..self.hosts.len() {
            self.schedule_host_attack(h);
            self.schedule_host_false_alarm(h);
            self.schedule_mgr_attack(h);
        }
        // Initial improper state (apps now have replicas).
        for app in 0..self.apps.len() {
            self.update_improper(app);
        }
    }

    // ------------------------------------------------------------------
    // Rates and scheduling
    // ------------------------------------------------------------------

    fn exp_delay(&mut self, rate: f64) -> Option<f64> {
        if rate <= 0.0 {
            None
        } else {
            Some(-self.rng.next_f64_open().ln() / rate)
        }
    }

    fn schedule_host_attack(&mut self, h: usize) {
        let host = &self.hosts[h];
        if !host.alive || host.corrupt {
            return;
        }
        let rate = self.p.host_attack_rate()
            * self.p.spread_multiplier(
                self.domains[host.domain].spread_level,
                self.system_spread_level,
            );
        let epoch = self.hosts[h].attack_epoch;
        if let Some(d) = self.exp_delay(rate) {
            self.queue
                .schedule(self.now + d, Event::HostAttack { host: h, epoch });
        }
    }

    fn schedule_host_false_alarm(&mut self, h: usize) {
        if !self.hosts[h].alive || self.hosts[h].corrupt {
            return;
        }
        if let Some(d) = self.exp_delay(self.p.host_false_alarm_rate()) {
            self.queue
                .schedule(self.now + d, Event::HostFalseAlarm { host: h });
        }
    }

    fn schedule_mgr_attack(&mut self, h: usize) {
        let host = &self.hosts[h];
        if !host.alive || !host.mgr_alive || host.mgr_corrupt {
            return;
        }
        let rate = if host.corrupt {
            self.p.corrupt_host_manager_rate()
        } else {
            self.p.manager_attack_rate()
        };
        let epoch = host.mgr_attack_epoch;
        if let Some(d) = self.exp_delay(rate) {
            self.queue
                .schedule(self.now + d, Event::MgrAttack { host: h, epoch });
        }
    }

    fn schedule_replica_attack(&mut self, r: usize) {
        let rep = &self.replicas[r];
        if !rep.alive || rep.corrupt {
            return;
        }
        let rate = if self.hosts[rep.host].corrupt {
            self.p.corrupt_host_replica_rate()
        } else {
            self.p.replica_attack_rate()
        };
        let epoch = rep.attack_epoch;
        if let Some(d) = self.exp_delay(rate) {
            self.queue
                .schedule(self.now + d, Event::RepAttack { replica: r, epoch });
        }
    }

    /// Redraws the remaining delay of every pending event from the
    /// current stream.
    ///
    /// Every delay in this model is exponential, so by memorylessness the
    /// redrawn schedule has exactly the law of the old one conditioned on
    /// the present state — this changes *which* future gets sampled,
    /// never its distribution. An importance-splitting branch calls this
    /// after reseeding (via [`itua_rare::SplitBranch::reseed`]): without
    /// it, sibling branches would inherit the parent's already-drawn
    /// event times from the cloned queue and replay near-identical
    /// futures, defeating the variance reduction splitting exists for.
    /// Entries whose guard no longer holds (stale epochs, dead or already
    /// corrupt entities) would be no-ops at pop time and are dropped
    /// instead of redrawn. Events are redrawn in queue (time) order, so
    /// the result is a pure function of state and seed.
    fn resample_pending(&mut self) {
        let mut pending = Vec::new();
        while let Some((_, ev)) = self.queue.pop() {
            pending.push(ev);
        }
        for ev in pending {
            let rate = match ev {
                Event::HostAttack { host, epoch } => {
                    let h = &self.hosts[host];
                    (h.alive && !h.corrupt && h.attack_epoch == epoch).then(|| {
                        self.p.host_attack_rate()
                            * self.p.spread_multiplier(
                                self.domains[h.domain].spread_level,
                                self.system_spread_level,
                            )
                    })
                }
                Event::HostDetect { host } => {
                    let h = &self.hosts[host];
                    (h.alive && h.corrupt).then_some(self.p.ids_rate)
                }
                Event::HostFalseAlarm { host } => {
                    let h = &self.hosts[host];
                    (h.alive && !h.corrupt).then(|| self.p.host_false_alarm_rate())
                }
                Event::MgrAttack { host, epoch } => {
                    let h = &self.hosts[host];
                    (h.alive && h.mgr_alive && !h.mgr_corrupt && h.mgr_attack_epoch == epoch).then(
                        || {
                            if h.corrupt {
                                self.p.corrupt_host_manager_rate()
                            } else {
                                self.p.manager_attack_rate()
                            }
                        },
                    )
                }
                Event::MgrDetect { host } => {
                    let h = &self.hosts[host];
                    (h.alive && h.mgr_alive && h.mgr_corrupt).then_some(self.p.ids_rate)
                }
                Event::RepAttack { replica, epoch } => {
                    let r = &self.replicas[replica];
                    (r.alive && !r.corrupt && r.attack_epoch == epoch).then(|| {
                        if self.hosts[r.host].corrupt {
                            self.p.corrupt_host_replica_rate()
                        } else {
                            self.p.replica_attack_rate()
                        }
                    })
                }
                Event::RepDetect { replica } => {
                    let r = &self.replicas[replica];
                    (r.alive && r.corrupt && !r.convicted).then_some(self.p.ids_rate)
                }
                Event::RepFalseDetect { replica } => {
                    let r = &self.replicas[replica];
                    (r.alive && r.corrupt && !r.convicted)
                        .then(|| self.p.replica_false_alarm_rate())
                }
                Event::RepMisbehave { replica } => {
                    let r = &self.replicas[replica];
                    (r.alive && r.corrupt && !r.convicted).then_some(self.p.misbehave_rate)
                }
                Event::SpreadDomain { host } => {
                    let h = &self.hosts[host];
                    (h.alive && h.corrupt).then_some(self.p.spread_rate_domain)
                }
                Event::SpreadSystem { host } => {
                    let h = &self.hosts[host];
                    (h.alive && h.corrupt).then_some(self.p.spread_rate_system)
                }
            };
            if let Some(d) = rate.and_then(|rate| self.exp_delay(rate)) {
                self.queue.schedule(self.now + d, ev);
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::HostAttack { host, epoch } => self.on_host_attack(host, epoch),
            Event::HostDetect { host } => self.on_host_detect(host),
            Event::HostFalseAlarm { host } => self.on_host_false_alarm(host),
            Event::MgrAttack { host, epoch } => self.on_mgr_attack(host, epoch),
            Event::MgrDetect { host } => self.on_mgr_detect(host),
            Event::RepAttack { replica, epoch } => self.on_rep_attack(replica, epoch),
            Event::RepDetect { replica } | Event::RepFalseDetect { replica } => {
                self.on_rep_convicted_by_ids(replica);
            }
            Event::RepMisbehave { replica } => self.on_rep_misbehave(replica),
            Event::SpreadDomain { host } => self.on_spread_domain(host),
            Event::SpreadSystem { host } => self.on_spread_system(host),
        }
    }

    fn on_host_attack(&mut self, h: usize, epoch: u32) {
        let host = &self.hosts[h];
        if !host.alive || host.corrupt || host.attack_epoch != epoch {
            return;
        }
        self.hosts[h].corrupt = true;

        // Category and (pre-sampled) IDS detection.
        let mix = self.p.attack_mix;
        let cat =
            match self
                .rng
                .weighted_choice(&[mix.p_script, mix.p_exploratory, mix.p_innovative])
            {
                0 => AttackCategory::Script,
                1 => AttackCategory::Exploratory,
                _ => AttackCategory::Innovative,
            };
        let p_detect = match cat {
            AttackCategory::Script => mix.detect_script,
            AttackCategory::Exploratory => mix.detect_exploratory,
            AttackCategory::Innovative => mix.detect_innovative,
        };
        if self.rng.bernoulli(p_detect) {
            if let Some(d) = self.exp_delay(self.p.ids_rate) {
                self.queue
                    .schedule(self.now + d, Event::HostDetect { host: h });
            }
        }

        // One-shot spread processes.
        if let Some(d) = self.exp_delay(self.p.spread_rate_domain) {
            self.queue
                .schedule(self.now + d, Event::SpreadDomain { host: h });
        }
        if let Some(d) = self.exp_delay(self.p.spread_rate_system) {
            self.queue
                .schedule(self.now + d, Event::SpreadSystem { host: h });
        }

        // Replicas and manager on this host become more vulnerable:
        // invalidate and re-arm their attack processes at the higher rate.
        for i in 0..self.hosts[h].replicas.len() {
            let r = self.hosts[h].replicas[i];
            if self.replicas[r].alive && !self.replicas[r].corrupt {
                self.replicas[r].attack_epoch += 1;
                self.schedule_replica_attack(r);
            }
        }
        if self.hosts[h].mgr_alive && !self.hosts[h].mgr_corrupt {
            self.hosts[h].mgr_attack_epoch += 1;
            self.schedule_mgr_attack(h);
        }
    }

    fn on_host_detect(&mut self, h: usize) {
        if !self.hosts[h].alive || !self.hosts[h].corrupt {
            return;
        }
        // Response requires the local manager and the domain's manager
        // group to be uncompromised (paper §3.4).
        if self.host_level_response_possible(h) {
            self.respond_with_exclusion(h);
        }
    }

    fn on_host_false_alarm(&mut self, h: usize) {
        if !self.hosts[h].alive {
            return;
        }
        if self.hosts[h].corrupt {
            // False alarms are only raised while there has been no actual
            // intrusion; once corrupt, this channel is disabled.
            return;
        }
        if self.host_level_response_possible(h) {
            self.respond_with_exclusion(h);
        }
        // If the host survived (no response possible, or host-exclusion of
        // a different host), further false alarms can still occur.
        if self.hosts[h].alive && !self.hosts[h].corrupt {
            self.schedule_host_false_alarm(h);
        }
    }

    fn on_mgr_attack(&mut self, h: usize, epoch: u32) {
        let host = &self.hosts[h];
        if !host.alive || !host.mgr_alive || host.mgr_corrupt || host.mgr_attack_epoch != epoch {
            return;
        }
        self.hosts[h].mgr_corrupt = true;
        self.domains[self.hosts[h].domain].corrupt_mgrs += 1;
        self.corrupt_mgrs_total += 1;
        if self.rng.bernoulli(self.p.detect_manager) {
            if let Some(d) = self.exp_delay(self.p.ids_rate) {
                self.queue
                    .schedule(self.now + d, Event::MgrDetect { host: h });
            }
        }
    }

    fn on_mgr_detect(&mut self, h: usize) {
        if !self.hosts[h].alive || !self.hosts[h].mgr_alive || !self.hosts[h].mgr_corrupt {
            return;
        }
        // The detected manager cannot be required to report itself; the
        // response goes through the rest of the domain group (or the
        // system-wide group).
        let d = self.hosts[h].domain;
        if !self.domain_mgr_group_corrupt(d) || self.system_mgr_quorum_ok() {
            self.respond_with_exclusion(h);
        }
    }

    fn on_rep_attack(&mut self, r: usize, epoch: u32) {
        let rep = &self.replicas[r];
        if !rep.alive || rep.corrupt || rep.attack_epoch != epoch {
            return;
        }
        let app = rep.app;
        self.replicas[r].corrupt = true;
        self.apps[app].corrupt_undetected += 1;
        self.update_improper(app);

        // IDS detection (pre-sampled success), the paper-literal replica
        // false-alarm channel, and group-communication misbehavior.
        if self.rng.bernoulli(self.p.detect_replica) {
            if let Some(d) = self.exp_delay(self.p.ids_rate) {
                self.queue
                    .schedule(self.now + d, Event::RepDetect { replica: r });
            }
        }
        if let Some(d) = self.exp_delay(self.p.replica_false_alarm_rate()) {
            self.queue
                .schedule(self.now + d, Event::RepFalseDetect { replica: r });
        }
        if let Some(d) = self.exp_delay(self.p.misbehave_rate) {
            self.queue
                .schedule(self.now + d, Event::RepMisbehave { replica: r });
        }
    }

    fn on_rep_convicted_by_ids(&mut self, r: usize) {
        let rep = &self.replicas[r];
        if !rep.alive || !rep.corrupt || rep.convicted {
            return;
        }
        self.convict_replica(r);
    }

    fn on_rep_misbehave(&mut self, r: usize) {
        let rep = &self.replicas[r];
        if !rep.alive || !rep.corrupt || rep.convicted {
            return;
        }
        let app = rep.app;
        // Conviction by the replication group requires the group to still
        // reach Byzantine agreement.
        if Params::quorum_ok(self.apps[app].running, self.apps[app].corrupt_undetected) {
            self.convict_replica(r);
        } else {
            // The activity is disabled right now but may re-enable; by
            // memorylessness, re-arming is equivalent.
            if let Some(d) = self.exp_delay(self.p.misbehave_rate) {
                self.queue
                    .schedule(self.now + d, Event::RepMisbehave { replica: r });
            }
        }
    }

    fn on_spread_domain(&mut self, h: usize) {
        if !self.hosts[h].alive || !self.hosts[h].corrupt {
            return;
        }
        let d = self.hosts[h].domain;
        // The spread variable is both the propagate rate and the increment
        // (paper §3.4).
        self.domains[d].spread_level += self.p.spread_rate_domain;
        // Every clean host in the domain becomes more exposed.
        let lo = d * self.p.hosts_per_domain;
        for hh in lo..lo + self.p.hosts_per_domain {
            if self.hosts[hh].alive && !self.hosts[hh].corrupt {
                self.hosts[hh].attack_epoch += 1;
                self.schedule_host_attack(hh);
            }
        }
    }

    fn on_spread_system(&mut self, h: usize) {
        if !self.hosts[h].alive || !self.hosts[h].corrupt {
            return;
        }
        self.system_spread_level += self.p.spread_rate_system;
        for hh in 0..self.hosts.len() {
            if self.hosts[hh].alive && !self.hosts[hh].corrupt {
                self.hosts[hh].attack_epoch += 1;
                self.schedule_host_attack(hh);
            }
        }
    }

    // ------------------------------------------------------------------
    // Conviction, exclusion, recovery
    // ------------------------------------------------------------------

    /// Group/IDS conviction of a corrupt replica. Per §2, "the replication
    /// group excludes the convicted replica from all future
    /// communications": it leaves the group immediately (shrinking
    /// `replicas_running`) and needs a replacement. The managers
    /// additionally exclude its domain (or host) if they can still respond.
    fn convict_replica(&mut self, r: usize) {
        let app = self.replicas[r].app;
        let h = self.replicas[r].host;
        let d = self.hosts[h].domain;

        self.replicas[r].convicted = true;
        self.apps[app].corrupt_undetected -= 1;
        self.update_improper(app);

        // Response condition (paper: shut_host): the domain's manager group
        // is not corrupt, or there are enough good managers system-wide.
        if !self.domain_mgr_group_corrupt(d) || self.system_mgr_quorum_ok() {
            // The exclusion kills the convicted replica (still on its
            // host, so the Figure 3(c) measure sees the compromise) along
            // with everything else on the host/domain.
            self.respond_with_exclusion(h);
        }
        if self.replicas[r].alive {
            // No exclusion happened (gated response, or host-exclusion of
            // a different host cannot occur here). The group has still
            // excluded the replica from all future communication, and the
            // correct replicas asked for a replacement.
            self.replicas[r].alive = false;
            self.count_live(r, false);
            self.apps[app].running -= 1;
            self.apps[app].need_recovery += 1;
            self.hosts[h].replicas.retain(|&rr| rr != r);
            self.update_improper(app);
            self.try_recoveries();
        }
    }

    /// Excludes the domain of `h` (domain scheme) or `h` itself (host
    /// scheme), then lets the managers start replacement replicas.
    fn respond_with_exclusion(&mut self, h: usize) {
        match self.p.scheme {
            ManagementScheme::DomainExclusion => self.exclude_domain(self.hosts[h].domain),
            ManagementScheme::HostExclusion => {
                self.exclude_host(h);
            }
        }
        self.try_recoveries();
    }

    fn exclude_domain(&mut self, d: usize) {
        if self.domains[d].excluded {
            return;
        }
        // Measure: fraction of this domain's hosts with *any* corruption
        // (host OS, manager, or a replica) at exclusion time.
        let lo = d * self.p.hosts_per_domain;
        let hi = lo + self.p.hosts_per_domain;
        let corrupt = (lo..hi).filter(|&hh| self.host_compromised(hh)).count();
        self.exclusion_fractions
            .push(corrupt as f64 / self.p.hosts_per_domain as f64);

        self.domains[d].excluded = true;
        self.excluded_domains += 1;
        for hh in lo..hi {
            self.exclude_host(hh);
        }
    }

    fn exclude_host(&mut self, h: usize) {
        if !self.hosts[h].alive {
            return;
        }
        self.hosts[h].alive = false;
        let d = self.hosts[h].domain;
        self.domains[d].active_hosts -= 1;
        // Kill the manager.
        if self.hosts[h].mgr_alive {
            self.hosts[h].mgr_alive = false;
            self.domains[d].active_mgrs -= 1;
            self.active_mgrs_total -= 1;
            if self.hosts[h].mgr_corrupt {
                self.domains[d].corrupt_mgrs -= 1;
                self.corrupt_mgrs_total -= 1;
            }
        }
        // Kill every replica on the host.
        for i in 0..self.hosts[h].replicas.len() {
            self.kill_replica(self.hosts[h].replicas[i]);
        }
        self.hosts[h].replicas.clear();
    }

    fn kill_replica(&mut self, r: usize) {
        if !self.replicas[r].alive {
            return;
        }
        self.replicas[r].alive = false;
        self.count_live(r, false);
        let app = self.replicas[r].app;
        self.apps[app].running -= 1;
        if self.replicas[r].corrupt && !self.replicas[r].convicted {
            self.apps[app].corrupt_undetected -= 1;
        }
        self.apps[app].need_recovery += 1;
        self.update_improper(app);
    }

    /// Managers start replacement replicas while quorum and eligibility
    /// allow (instantaneous, like the paper's high-rate activities).
    fn try_recoveries(&mut self) {
        if !self.system_mgr_quorum_ok() {
            return;
        }
        for app in 0..self.apps.len() {
            while self.apps[app].need_recovery > 0 {
                if !self.start_replica_somewhere(app) {
                    break;
                }
                self.apps[app].need_recovery -= 1;
            }
        }
    }

    /// Starts one replica of `app` on a uniformly random eligible
    /// domain/host. Returns false if nowhere is eligible.
    fn start_replica_somewhere(&mut self, app: usize) -> bool {
        let Some(d) =
            self.choose_candidate(0..self.p.num_domains, |st, d| st.domain_eligible(d, app))
        else {
            return false;
        };
        let lo = d * self.p.hosts_per_domain;
        let Some(h) = self.choose_candidate(lo..lo + self.p.hosts_per_domain, |st, h| {
            st.host_eligible(h, app)
        }) else {
            return false;
        };
        let r = self.replicas.len();
        self.replicas.push(Replica {
            app,
            host: h,
            alive: true,
            corrupt: false,
            convicted: false,
            attack_epoch: 0,
        });
        self.hosts[h].replicas.push(r);
        self.count_live(r, true);
        self.apps[app].running += 1;
        self.update_improper(app);
        self.schedule_replica_attack(r);
        true
    }

    /// Draws one of the indices in `range` that pass `eligible`, uniformly,
    /// through the reused candidate buffer; `None` if none passes.
    fn choose_candidate(
        &mut self,
        range: std::ops::Range<usize>,
        eligible: impl Fn(&Self, usize) -> bool,
    ) -> Option<usize> {
        self.candidates.clear();
        for i in range {
            if eligible(self, i) {
                self.candidates.push(i);
            }
        }
        self.rng.choose(&self.candidates).copied()
    }

    /// Counts replica `r` into (`live`) or out of the occupancy counters
    /// of its app on its host and domain.
    fn count_live(&mut self, r: usize, live: bool) {
        let Replica { app, host, .. } = self.replicas[r];
        let na = self.apps.len();
        let (h, d) = (host * na + app, self.hosts[host].domain * na + app);
        if live {
            self.host_app_live[h] += 1;
            self.domain_app_live[d] += 1;
        } else {
            self.host_app_live[h] -= 1;
            self.domain_app_live[d] -= 1;
        }
    }

    fn domain_eligible(&self, d: usize, app: usize) -> bool {
        let dom = &self.domains[d];
        let live = self.domain_app_live[d * self.apps.len() + app];
        !dom.excluded
            && match self.p.placement {
                // No live replica of this app anywhere in the domain, and
                // at least one live host.
                PlacementConstraint::OnePerDomain => live == 0 && dom.active_hosts > 0,
                // Some live host holds no replica of this app: every live
                // replica sits on a live host, at most one per host.
                PlacementConstraint::OnePerHost => dom.active_hosts > live,
            }
    }

    fn host_eligible(&self, h: usize, app: usize) -> bool {
        self.hosts[h].alive
            && match self.p.placement {
                PlacementConstraint::OnePerDomain => true, // domain filter did the work
                PlacementConstraint::OnePerHost => {
                    self.host_app_live[h * self.apps.len() + app] == 0
                }
            }
    }

    // ------------------------------------------------------------------
    // Conditions and measures
    // ------------------------------------------------------------------

    fn domain_mgr_group_corrupt(&self, d: usize) -> bool {
        !Params::quorum_ok(self.domains[d].active_mgrs, self.domains[d].corrupt_mgrs)
    }

    fn system_mgr_quorum_ok(&self) -> bool {
        Params::quorum_ok(self.active_mgrs_total, self.corrupt_mgrs_total)
    }

    fn host_level_response_possible(&self, h: usize) -> bool {
        let host = &self.hosts[h];
        host.mgr_alive && !host.mgr_corrupt && !self.domain_mgr_group_corrupt(host.domain)
    }

    /// A host counts as compromised for the Figure 3(c)/4(c) measure if
    /// any entity on it (OS, manager, or a replica) is corrupt.
    fn host_compromised(&self, h: usize) -> bool {
        let host = &self.hosts[h];
        host.corrupt
            || host.mgr_corrupt
            || host
                .replicas
                .iter()
                .any(|&r| self.replicas[r].alive && self.replicas[r].corrupt)
    }

    fn update_improper(&mut self, app: usize) {
        let a = &self.apps[app];
        let improper =
            a.running == 0 || (a.corrupt_undetected > 0 && 3 * a.corrupt_undetected >= a.running);
        let byz = a.corrupt_undetected > 0 && 3 * a.corrupt_undetected >= a.running;
        let now = self.now;
        if improper && self.first_improper_time.is_none() && now > 0.0 {
            self.first_improper_time = Some(now);
        }
        if byz && self.first_byzantine_time.is_none() {
            self.first_byzantine_time = Some(now);
        }
        let a = &mut self.apps[app];
        a.improper.set(now, if improper { 1.0 } else { 0.0 });
        if byz {
            a.byzantine = true;
        }
    }

    fn snapshot(&self, time: f64) -> Snapshot {
        let alive_hosts = self.hosts.iter().filter(|h| h.alive).count();
        let alive_replicas = self.replicas.iter().filter(|r| r.alive).count();
        Snapshot {
            time,
            frac_domains_excluded: self.excluded_domains as f64 / self.p.num_domains as f64,
            mean_replicas_running: self.apps.iter().map(|a| a.running as f64).sum::<f64>()
                / self.apps.len() as f64,
            load_per_host: if alive_hosts == 0 {
                0.0
            } else {
                alive_replicas as f64 / alive_hosts as f64
            },
        }
    }

    /// Debug invariant check (used by tests).
    #[cfg(test)]
    fn check_invariants(&self) {
        for (i, app) in self.apps.iter().enumerate() {
            let running = self
                .replicas
                .iter()
                .filter(|r| r.alive && r.app == i)
                .count();
            assert_eq!(app.running, running, "app {i} running count");
            let corrupt = self
                .replicas
                .iter()
                .filter(|r| r.alive && r.app == i && r.corrupt && !r.convicted)
                .count();
            assert_eq!(app.corrupt_undetected, corrupt, "app {i} corrupt count");
        }
        let mgrs = self.hosts.iter().filter(|h| h.mgr_alive).count();
        assert_eq!(self.active_mgrs_total, mgrs);
        let corrupt_mgrs = self
            .hosts
            .iter()
            .filter(|h| h.mgr_alive && h.mgr_corrupt)
            .count();
        assert_eq!(self.corrupt_mgrs_total, corrupt_mgrs);
        let excl = self.domains.iter().filter(|d| d.excluded).count();
        assert_eq!(self.excluded_domains, excl);
        // Occupancy counters, recounted from the replica arena. Every live
        // replica sits on a live host and is listed there, which is what
        // lets the counters stand in for a scan of the host lists.
        let na = self.apps.len();
        let mut host_live = vec![0; self.hosts.len() * na];
        let mut domain_live = vec![0; self.domains.len() * na];
        for (r, rep) in self.replicas.iter().enumerate() {
            let listed = self.hosts[rep.host].replicas.contains(&r);
            assert_eq!(listed, rep.alive, "replica {r} listing on its host");
            if rep.alive {
                assert!(
                    self.hosts[rep.host].alive,
                    "live replica {r} on a dead host"
                );
                host_live[rep.host * na + rep.app] += 1;
                domain_live[self.hosts[rep.host].domain * na + rep.app] += 1;
            }
        }
        assert_eq!(self.host_app_live, host_live, "per-host occupancy");
        assert_eq!(self.domain_app_live, domain_live, "per-domain occupancy");
        let constrained = match self.p.placement {
            PlacementConstraint::OnePerDomain => &domain_live,
            PlacementConstraint::OnePerHost => &host_live,
        };
        assert!(
            constrained.iter().all(|&n| n <= 1),
            "{:?} violated",
            self.p.placement
        );
        for (d, dom) in self.domains.iter().enumerate() {
            let lo = d * self.p.hosts_per_domain;
            let hi = lo + self.p.hosts_per_domain;
            let active = (lo..hi).filter(|&h| self.hosts[h].alive).count();
            assert_eq!(dom.active_hosts, active, "domain {d} active hosts");
            if dom.excluded {
                assert_eq!(active, 0, "excluded domain {d} has live hosts");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::MeasureSet;

    fn small_params() -> Params {
        Params::default().with_domains(4, 2).with_applications(2, 3)
    }

    #[test]
    fn run_is_reproducible() {
        let des = ItuaDes::new(small_params()).unwrap();
        let a = des.run(7, 5.0, &[5.0]);
        let b = des.run(7, 5.0, &[5.0]);
        assert_eq!(a, b);
        let c = des.run(8, 5.0, &[5.0]);
        assert_ne!(a, c);
    }

    #[test]
    fn reused_scratch_matches_fresh_runs() {
        // Under both schemes, with spread re-arming host attacks, runs
        // leave excluded hosts, dead replicas, occupancy counts and
        // placement candidates behind: the next begin must clear them all.
        for scheme in [
            ManagementScheme::DomainExclusion,
            ManagementScheme::HostExclusion,
        ] {
            let p = small_params().with_scheme(scheme).with_spread_rate(4.0);
            let des = ItuaDes::new(p).unwrap();
            let mut scratch = des.scratch();
            let mut excluding_runs = 0;
            for seed in 0..40 {
                let reused = des.run_into(seed, 5.0, &[1.0, 5.0], &mut scratch);
                let fresh = des.run(seed, 5.0, &[1.0, 5.0]);
                assert_eq!(reused, fresh, "{scheme:?} seed {seed}");
                if scratch.state.hosts.iter().any(|h| !h.alive) {
                    excluding_runs += 1;
                }
            }
            assert!(excluding_runs > 0, "{scheme:?}: no run excluded a host");
        }
    }

    /// Runs the tree seeded `seed` under `spec` rooted in `root`.
    fn tree(
        des: &ItuaDes,
        root: &mut DesScratch,
        seed: u64,
        spec: &itua_rare::SplitSpec,
    ) -> (itua_rare::TreeStats, Vec<(f64, RunOutput)>) {
        des.begin(seed, root);
        let mut leaves = Vec::new();
        let Ok(stats) = itua_rare::run_tree(root, seed, spec, &mut leaves);
        (stats, leaves)
    }

    #[test]
    fn scratch_root_without_splits_matches_plain_run() {
        // A tree with an empty spec rooted in a reused scratch is the
        // plain replication: one weight-1 leaf, bit-identical to
        // ItuaDes::run, since the root never reseeds.
        let des = ItuaDes::new(small_params()).unwrap();
        let mut root = des.scratch();
        des.prepare(5.0, &[1.0, 5.0], &mut root);
        for seed in 0..20u64 {
            let plain = des.run(seed, 5.0, &[1.0, 5.0]);
            let (stats, leaves) = tree(&des, &mut root, seed, &itua_rare::SplitSpec::none());
            assert_eq!(stats.branches, 1);
            assert_eq!(leaves.len(), 1);
            assert_eq!(leaves[0].0, 1.0);
            assert_eq!(leaves[0].1, plain, "seed {seed}");
        }
    }

    #[test]
    fn scratch_root_with_splits_produces_weighted_leaves() {
        // Trees rooted in one reused scratch, split or not before, match
        // trees rooted in a fresh scratch: the reset after a split is
        // complete.
        let des = ItuaDes::new(small_params()).unwrap();
        let spec: itua_rare::SplitSpec = "1x4".parse().unwrap();
        let mut root = des.scratch();
        des.prepare(5.0, &[5.0], &mut root);
        let mut split_trees = 0u32;
        for seed in 0..40u64 {
            let (stats, leaves) = tree(&des, &mut root, seed, &spec);
            let mut fresh = des.scratch();
            des.prepare(5.0, &[5.0], &mut fresh);
            assert_eq!(
                tree(&des, &mut fresh, seed, &spec),
                (stats, leaves.clone()),
                "seed {seed}"
            );
            if stats.branches > 1 {
                split_trees += 1;
            }
            for &(w, ref out) in &leaves {
                assert!(w > 0.0 && w <= 1.0);
                assert!(out.unavailability(5.0) >= 0.0);
            }
            // Every surviving leaf reached the horizon; killed branches
            // left no output.
            assert_eq!(leaves.len() as u32, stats.leaves);
        }
        assert!(split_trees > 0, "no tree ever crossed level 1");
    }

    #[test]
    #[should_panic(expected = "topology")]
    fn scratch_from_other_topology_is_rejected() {
        let a = ItuaDes::new(small_params()).unwrap();
        let b = ItuaDes::new(Params::default().with_domains(3, 3).with_applications(2, 3)).unwrap();
        let mut scratch = b.scratch();
        a.run_into(0, 1.0, &[], &mut scratch);
    }

    #[test]
    fn initial_placement_respects_domain_constraint() {
        // 3 domains, 7 requested replicas → only 3 start.
        let p = Params::default().with_domains(3, 4).with_applications(2, 7);
        let des = ItuaDes::new(p).unwrap();
        let out = des.run(1, 0.001, &[0.001]);
        assert!((out.snapshots[0].mean_replicas_running - 3.0).abs() < 1e-9);
    }

    #[test]
    fn placement_fills_all_domains_when_possible() {
        let p = Params::default()
            .with_domains(10, 1)
            .with_applications(1, 7);
        let des = ItuaDes::new(p).unwrap();
        let out = des.run(3, 0.001, &[0.001]);
        assert!((out.snapshots[0].mean_replicas_running - 7.0).abs() < 1e-9);
    }

    #[test]
    fn invariants_hold_through_events() {
        let p = small_params();
        for seed in 0..30 {
            let mut st = State::new(p.clone(), Rng::seed_from_u64(seed));
            st.initial_placement();
            st.check_invariants();
            let mut events = 0;
            while let Some((t, ev)) = st.queue.pop() {
                if t > 20.0 || events > 5000 {
                    break;
                }
                st.now = t;
                st.handle(ev);
                st.check_invariants();
                events += 1;
            }
        }
    }

    #[test]
    fn invariants_hold_host_exclusion_scheme() {
        let p = small_params().with_scheme(ManagementScheme::HostExclusion);
        for seed in 0..30 {
            let mut st = State::new(p.clone(), Rng::seed_from_u64(seed));
            st.initial_placement();
            let mut events = 0;
            while let Some((t, ev)) = st.queue.pop() {
                if t > 20.0 || events > 5000 {
                    break;
                }
                st.now = t;
                st.handle(ev);
                st.check_invariants();
                events += 1;
            }
            // Domains are never excluded wholesale under host exclusion.
            assert_eq!(st.exclusion_fractions.len(), 0);
        }
    }

    #[test]
    fn unavailability_between_zero_and_one() {
        let des = ItuaDes::new(small_params()).unwrap();
        for seed in 0..50 {
            let out = des.run(seed, 5.0, &[]);
            let u = out.unavailability(5.0);
            assert!((0.0..=1.0).contains(&u), "seed {seed}: {u}");
            let r = out.unreliability();
            assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn no_attacks_means_no_unavailability() {
        // With a (nearly) zero attack rate and no false alarms, service
        // stays proper and nothing is excluded.
        let mut p = small_params();
        p.base_attack_rate = 1e-12;
        p.false_alarm_rate = 0.0;
        let des = ItuaDes::new(p).unwrap();
        let out = des.run(5, 10.0, &[10.0]);
        assert_eq!(out.unavailability(10.0), 0.0);
        assert_eq!(out.unreliability(), 0.0);
        assert_eq!(out.snapshots[0].frac_domains_excluded, 0.0);
        assert!(out.exclusion_corrupt_fractions.is_empty());
    }

    #[test]
    fn single_domain_single_replica_fails_eventually() {
        // 1 domain: first exclusion (or corruption) takes everything down,
        // and nothing can be recovered (no eligible domains remain).
        let p = Params::default().with_domains(1, 4).with_applications(1, 7);
        let des = ItuaDes::new(p).unwrap();
        let mut saw_failure = false;
        for seed in 0..20 {
            let out = des.run(seed, 50.0, &[50.0]);
            if out.snapshots[0].frac_domains_excluded == 1.0 {
                saw_failure = true;
                assert!(out.unavailability(50.0) > 0.0);
            }
        }
        assert!(saw_failure, "no run excluded the single domain in 50h");
    }

    #[test]
    fn more_hosts_per_domain_waste_more_resources() {
        // Fig 3(c) direction: with many hosts per domain, the fraction of
        // corrupt hosts in an excluded domain is much smaller than with one
        // host per domain.
        let mut ms1 = MeasureSet::new(0.95);
        let mut ms6 = MeasureSet::new(0.95);
        let p1 = Params::default()
            .with_domains(12, 1)
            .with_applications(4, 7);
        let p6 = Params::default().with_domains(2, 6).with_applications(4, 7);
        let d1 = ItuaDes::new(p1).unwrap();
        let d6 = ItuaDes::new(p6).unwrap();
        for seed in 0..300 {
            ms1.record(&d1.run(seed, 5.0, &[]));
            ms6.record(&d6.run(seed, 5.0, &[]));
        }
        let f1 = ms1
            .mean(crate::measures::names::FRAC_CORRUPT_AT_EXCLUSION)
            .unwrap();
        let f6 = ms6
            .mean(crate::measures::names::FRAC_CORRUPT_AT_EXCLUSION)
            .unwrap();
        assert!(
            f1 > f6 + 0.2,
            "expected fewer corrupt hosts per exclusion with bigger domains: {f1} vs {f6}"
        );
    }

    #[test]
    fn host_exclusion_saves_resources_short_term() {
        // Fig 5(a) direction at spread 0: host exclusion keeps more
        // replicas running in the short run.
        let base = Params::default()
            .with_domains(10, 3)
            .with_applications(4, 7)
            .with_host_corruption_multiplier(5.0)
            .with_spread_rate(0.0);
        let dom = ItuaDes::new(base.clone()).unwrap();
        let host = ItuaDes::new(base.with_scheme(ManagementScheme::HostExclusion)).unwrap();
        let mut dom_ms = MeasureSet::new(0.95);
        let mut host_ms = MeasureSet::new(0.95);
        for seed in 0..200 {
            dom_ms.record(&dom.run(seed, 5.0, &[5.0]));
            host_ms.record(&host.run(seed, 5.0, &[5.0]));
        }
        let dom_u = dom_ms.mean(crate::measures::names::UNAVAILABILITY).unwrap();
        let host_u = host_ms
            .mean(crate::measures::names::UNAVAILABILITY)
            .unwrap();
        assert!(
            host_u <= dom_u + 1e-9,
            "host exclusion should not be worse at zero spread: {host_u} vs {dom_u}"
        );
    }

    #[test]
    fn snapshots_are_monotone_in_exclusions() {
        let des = ItuaDes::new(small_params()).unwrap();
        for seed in 0..20 {
            let out = des.run(seed, 10.0, &[2.0, 5.0, 10.0]);
            let fracs: Vec<f64> = out
                .snapshots
                .iter()
                .map(|s| s.frac_domains_excluded)
                .collect();
            assert!(
                fracs.windows(2).all(|w| w[0] <= w[1]),
                "seed {seed}: {fracs:?}"
            );
        }
    }

    #[test]
    fn exclusion_fraction_values_are_valid() {
        let des = ItuaDes::new(small_params()).unwrap();
        for seed in 0..50 {
            let out = des.run(seed, 10.0, &[]);
            for &f in &out.exclusion_corrupt_fractions {
                assert!((0.0..=1.0).contains(&f));
            }
        }
    }
}
