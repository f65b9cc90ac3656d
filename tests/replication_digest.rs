//! Pins the replication loop's output bits.
//!
//! Every simulated point runs through one loop: each replication is a
//! RESTART tree whose root branch is the worker's scratch state, and an
//! empty [`SplitSpec`] makes every tree one weight-1 leaf. A change to the
//! loop (scratch reuse, batching, the tree scheduler, the in-order
//! reduction) that moves one draw or reorders one floating-point sum moves
//! an estimate's bits; this test catches that without a store diff
//! against an older build.
//!
//! For the DES and the SAN on a small configuration, two runs are pinned:
//!
//! * 24 replications with an empty spec (horizon 3, samples at 1 and 3,
//!   seed 7), through both `run_measures_split` and `run_measures`;
//! * 32 trees split at `1x4,2x4` (horizon 3, a sample at 3, seed 11).
//!
//! A third run on each backend pins the paths only Figure 5 reaches: host
//! exclusion, one-per-host placement and spread re-arms (48 replications,
//! horizon 10, samples at 5 and 10, seed 13). On the DES, a fourth run
//! splits that configuration at `1x4,2x4` (32 trees, horizon 10, a sample
//! at 10, seed 17), so every split redraws pending host-exclusion and
//! spread re-armed events through the reseeded stream.
//!
//! Each run is repeated at 1, 2 and 8 threads with batches of 1 and 32,
//! and must reproduce the `to_bits` of every estimate's mean and
//! half-width, and the [`SplitTotals`], recorded below.

use itua_repro::itua::params::{ManagementScheme, Params};
use itua_repro::rare::SplitSpec;
use itua_repro::runner::backend::ModelCheck;
use itua_repro::runner::{
    run_measures, run_measures_split, BackendKind, ItuaBackend, NullProgress, RunnerConfig,
    SplitTotals,
};

/// `(estimate name, mean bits, half-width bits)`, in estimate order.
type Bits = Vec<(String, u64, u64)>;

/// One pinned run: its arguments, and the bits it produced when the
/// values were recorded.
struct Pinned {
    params: fn() -> Params,
    horizon: f64,
    replications: u32,
    seed: u64,
    samples: &'static [f64],
    spec: &'static str,
    estimates: &'static [(&'static str, u64, u64)],
    totals: SplitTotals,
}

fn params() -> Params {
    Params::default().with_domains(4, 2).with_applications(2, 3)
}

/// Host exclusion (hence one-per-host placement) on three-host domains,
/// with a fast intra-domain spread that re-arms host attacks.
fn host_exclusion_params() -> Params {
    Params::default()
        .with_domains(4, 3)
        .with_applications(2, 4)
        .with_scheme(ManagementScheme::HostExclusion)
        .with_host_corruption_multiplier(5.0)
        .with_spread_rate(4.0)
}

fn runner(threads: usize, batch: u32) -> RunnerConfig {
    RunnerConfig::default()
        .with_threads(threads)
        .with_batch_size(batch)
}

fn bits(estimates: Vec<itua_repro::stats::replication::Estimate>) -> Bits {
    estimates
        .into_iter()
        .map(|e| (e.name, e.ci.mean.to_bits(), e.ci.half_width.to_bits()))
        .collect()
}

/// The values in paste-ready form, for a failure message.
fn source(estimates: &Bits, totals: &SplitTotals) -> String {
    let mut s = String::from("estimates: &[\n");
    for (name, mean, hw) in estimates {
        s.push_str(&format!("    (\"{name}\", {mean:#018x}, {hw:#018x}),\n"));
    }
    s.push_str(&format!("],\ntotals: {totals:?}"));
    s
}

fn check(kind: BackendKind, pinned: &Pinned) {
    let backend = ItuaBackend::for_params(kind, &(pinned.params)()).expect("valid params");
    let spec: SplitSpec = pinned.spec.parse().expect("valid spec");
    let expected: Bits = pinned
        .estimates
        .iter()
        .map(|&(name, mean, hw)| (name.to_owned(), mean, hw))
        .collect();
    for threads in [1, 2, 8] {
        for batch in [1, 32] {
            let rc = runner(threads, batch);
            let run = run_measures_split(
                &backend,
                pinned.replications,
                0.95,
                pinned.seed,
                pinned.horizon,
                pinned.samples,
                &spec,
                &rc,
                &NullProgress,
                ModelCheck::Quick,
            )
            .expect("run");
            let got = bits(run.measures.estimates());
            assert!(
                got == expected && run.totals == pinned.totals,
                "{kind} spec {spec} threads={threads} batch={batch} moved; got\n{}",
                source(&got, &run.totals)
            );
            if spec.is_empty() {
                let plain = run_measures(
                    &backend,
                    pinned.replications,
                    0.95,
                    pinned.seed,
                    pinned.horizon,
                    pinned.samples,
                    &rc,
                    &NullProgress,
                )
                .expect("plain run");
                assert_eq!(
                    bits(plain.estimates()),
                    expected,
                    "{kind} run_measures threads={threads} batch={batch}"
                );
            }
        }
    }
}

#[test]
fn des_plain_replications_are_pinned() {
    check(BackendKind::Des, &DES_PLAIN);
}

#[test]
fn des_split_trees_are_pinned() {
    check(BackendKind::Des, &DES_SPLIT);
}

#[test]
fn des_host_exclusion_replications_are_pinned() {
    check(BackendKind::Des, &DES_HOST_EXCLUSION);
}

#[test]
fn des_host_exclusion_split_trees_are_pinned() {
    // The trees must split, or no reseed redraws a pending event.
    let totals = &DES_HOST_EXCLUSION_SPLIT.totals;
    assert!(totals.branches > totals.trees, "{totals:?}");
    check(BackendKind::Des, &DES_HOST_EXCLUSION_SPLIT);
}

#[test]
fn san_host_exclusion_replications_are_pinned() {
    check(BackendKind::San, &SAN_HOST_EXCLUSION);
}

#[test]
fn san_plain_replications_are_pinned() {
    check(BackendKind::San, &SAN_PLAIN);
}

#[test]
fn san_split_trees_are_pinned() {
    check(BackendKind::San, &SAN_SPLIT);
}

const DES_PLAIN: Pinned = Pinned {
    params,
    horizon: 3.0,
    replications: 24,
    seed: 7,
    samples: &[1.0, 3.0],
    spec: "none",
    estimates: &[
        (
            "frac_corrupt_hosts_at_exclusion",
            0x3fbd1745d1745d17,
            0x3fc1a1ef8b07c227,
        ),
        (
            "frac_domains_excluded@1",
            0x3fb2aaaaaaaaaaac,
            0x3fa91876acebdf64,
        ),
        (
            "frac_domains_excluded@3",
            0x3fc0000000000000,
            0x3fafe072b3fd0b92,
        ),
        ("load_per_host@1", 0x3fea555555555554, 0x3fa91876acebdf5f),
        ("load_per_host@3", 0x3febaaaaaaaaaaab, 0x3fab8292e73de9d1),
        ("replicas_running@1", 0x4008000000000000, 0x0000000000000000),
        ("replicas_running@3", 0x4007aaaaaaaaaaab, 0x3fb610d07b4ea099),
        (
            "time_to_first_byzantine",
            0x3ff4eb5bcc7efb54,
            0x4009b98e81fb3913,
        ),
        (
            "time_to_first_improper",
            0x3ff4eb5bcc7efb54,
            0x4009b98e81fb3913,
        ),
        ("unavailability", 0x3f93b62af434a2aa, 0x3fa0f458285e4977),
        ("unreliability", 0x3fb0000000000000, 0x3fb2427bdeb26e46),
    ],
    totals: SplitTotals {
        trees: 24,
        steps: 84,
        branches: 24,
        leaves: 24,
        killed: 0,
    },
};

const DES_SPLIT: Pinned = Pinned {
    params,
    horizon: 3.0,
    replications: 32,
    seed: 11,
    samples: &[3.0],
    spec: "1x4,2x4",
    estimates: &[
        (
            "frac_corrupt_hosts_at_exclusion",
            0x3fc7dcec19a23c0a,
            0x3fb6a443ca60fb6f,
        ),
        (
            "frac_domains_excluded@3",
            0x3fc3f00000000001,
            0x3fa83f8782aea227,
        ),
        ("load_per_host@3", 0x3febe95555555555, 0x3fa1bc8396d8a080),
        ("replicas_running@3", 0x4006f00000000001, 0x3fb1425ef9138382),
        (
            "time_to_first_byzantine",
            0x3ff95eaa37d770f3,
            0x3fe43f081b2cd84d,
        ),
        (
            "time_to_first_improper",
            0x3ff95eaa37d770f3,
            0x3fe43f081b2cd84d,
        ),
        ("unavailability", 0x3fa144417aadfa05, 0x3f9beea5ac2b8983),
        ("unreliability", 0x3fb47fffffffffff, 0x3fa7f07295dc7c6f),
    ],
    totals: SplitTotals {
        trees: 32,
        steps: 877,
        branches: 281,
        leaves: 281,
        killed: 0,
    },
};

const DES_HOST_EXCLUSION: Pinned = Pinned {
    params: host_exclusion_params,
    horizon: 10.0,
    replications: 48,
    seed: 13,
    samples: &[5.0, 10.0],
    spec: "none",
    estimates: &[
        (
            "frac_domains_excluded@10",
            0x0000000000000000,
            0x0000000000000000,
        ),
        (
            "frac_domains_excluded@5",
            0x0000000000000000,
            0x0000000000000000,
        ),
        ("load_per_host@10", 0x3ff0a9f632c805b6, 0x3fb56a51fc312400),
        ("load_per_host@5", 0x3fe97360e87b22d9, 0x3fa1e288c2b6abd6),
        (
            "replicas_running@10",
            0x400eaaaaaaaaaaaa,
            0x3fbe05bd33394223,
        ),
        ("replicas_running@5", 0x4010000000000000, 0x0000000000000000),
        (
            "time_to_first_byzantine",
            0x401f19811d97f494,
            0x3ff59ab2d5be6622,
        ),
        (
            "time_to_first_improper",
            0x401f19811d97f494,
            0x3ff59ab2d5be6622,
        ),
        ("unavailability", 0x3f86d7ed9f9f0032, 0x3f84c2114643b6b3),
        ("unreliability", 0x3fc2aaaaaaaaaaab, 0x3fb4397f8e3d9c2a),
    ],
    totals: SplitTotals {
        trees: 48,
        steps: 1486,
        branches: 48,
        leaves: 48,
        killed: 0,
    },
};

const SAN_PLAIN: Pinned = Pinned {
    params,
    horizon: 3.0,
    replications: 24,
    seed: 7,
    samples: &[1.0, 3.0],
    spec: "none",
    estimates: &[
        (
            "frac_corrupt_hosts_at_exclusion",
            0x3fcdddddddddddde,
            0x3fc6ae47be067b83,
        ),
        (
            "frac_domains_excluded@1",
            0x3fb5555555555554,
            0x3faa06fa5a34bf34,
        ),
        (
            "frac_domains_excluded@3",
            0x3fc5555555555555,
            0x3fae8508c0382594,
        ),
        ("load_per_host@1", 0x3feaaaaaaaaaaaab, 0x3faa06fa5a34bf35),
        ("load_per_host@3", 0x3fed000000000000, 0x3faababe646e7968),
        ("replicas_running@1", 0x4008000000000000, 0x0000000000000000),
        ("replicas_running@3", 0x4007aaaaaaaaaaab, 0x3fb610d07b4ea099),
        (
            "time_to_first_byzantine",
            0x3ff9c94514d43ec0,
            0x400a875668e4e23e,
        ),
        (
            "time_to_first_improper",
            0x3ff9c94514d43ec0,
            0x400a875668e4e23e,
        ),
        ("unavailability", 0x3f83361abb315b66, 0x3f90c41b7ad627a2),
        ("unreliability", 0x3fa5555555555556, 0x3fae8508c0382593),
    ],
    totals: SplitTotals {
        trees: 24,
        steps: 95,
        branches: 24,
        leaves: 24,
        killed: 0,
    },
};

const SAN_SPLIT: Pinned = Pinned {
    params,
    horizon: 3.0,
    replications: 32,
    seed: 11,
    samples: &[3.0],
    spec: "1x4,2x4",
    estimates: &[
        (
            "frac_corrupt_hosts_at_exclusion",
            0x3fcb397be4dd5de6,
            0x3fbb7277aea49160,
        ),
        (
            "frac_domains_excluded@3",
            0x3fc2600000000000,
            0x3fa790170c5e9a0f,
        ),
        ("load_per_host@3", 0x3febb6aaaaaaaaab, 0x3fa1a16d40b683fe),
        ("replicas_running@3", 0x4007200000000000, 0x3fae073cee533bae),
        (
            "time_to_first_byzantine",
            0x3ff5c128728a2560,
            0x3fe6ec6dec52038b,
        ),
        (
            "time_to_first_improper",
            0x3ff5c128728a2560,
            0x3fe6ec6dec52038b,
        ),
        ("unavailability", 0x3fa0ece3209f9f05, 0x3f9fd15f7d369e45),
        ("unreliability", 0x3fb2000000000000, 0x3fa7da2a8ae5ca55),
    ],
    totals: SplitTotals {
        trees: 32,
        steps: 951,
        branches: 275,
        leaves: 275,
        killed: 0,
    },
};

const SAN_HOST_EXCLUSION: Pinned = Pinned {
    params: host_exclusion_params,
    horizon: 10.0,
    replications: 48,
    seed: 13,
    samples: &[5.0, 10.0],
    spec: "none",
    estimates: &[
        (
            "frac_domains_excluded@10",
            0x0000000000000000,
            0x0000000000000000,
        ),
        (
            "frac_domains_excluded@5",
            0x0000000000000000,
            0x0000000000000000,
        ),
        ("load_per_host@10", 0x3fef96ea66e47dce, 0x3fb68daf29ca5585),
        ("load_per_host@5", 0x3fe8e5deda0ca88d, 0x3f9e24ee3bd70489),
        (
            "replicas_running@10",
            0x400e7fffffffffff,
            0x3fc0fb86a589ef23,
        ),
        ("replicas_running@5", 0x4010000000000000, 0x0000000000000000),
        (
            "time_to_first_byzantine",
            0x4019b4a70d12cddf,
            0x40070d2d5cf6dfd5,
        ),
        (
            "time_to_first_improper",
            0x4019b4a70d12cddf,
            0x40070d2d5cf6dfd5,
        ),
        ("unavailability", 0x3f908aa15efcd45f, 0x3f92fdd689518f57),
        ("unreliability", 0x3fb5555555555557, 0x3fb1b4cd36297c83),
    ],
    totals: SplitTotals {
        trees: 48,
        steps: 1199,
        branches: 48,
        leaves: 48,
        killed: 0,
    },
};

const DES_HOST_EXCLUSION_SPLIT: Pinned = Pinned {
    params: host_exclusion_params,
    horizon: 10.0,
    replications: 32,
    seed: 17,
    samples: &[10.0],
    spec: "1x4,2x4",
    estimates: &[
        (
            "frac_domains_excluded@10",
            0x0000000000000000,
            0x0000000000000000,
        ),
        ("load_per_host@10", 0x3ff1b8e752d24469, 0x3fcaed6a3fd4cfc4),
        (
            "replicas_running@10",
            0x40106c0000000000,
            0x3feab337f3d83809,
        ),
        (
            "time_to_first_byzantine",
            0x401c65b0da41c117,
            0x3fe5a3ae4ae76a6c,
        ),
        (
            "time_to_first_improper",
            0x401c65b0da41c117,
            0x3fe5a3ae4ae76a6c,
        ),
        ("unavailability", 0x3f7e5552f88f728c, 0x3f6cc5766bcd74bb),
        ("unreliability", 0x3fb9000000000003, 0x3f9f64394e10f78f),
    ],
    totals: SplitTotals {
        trees: 32,
        steps: 11174,
        branches: 542,
        leaves: 508,
        killed: 34,
    },
};
