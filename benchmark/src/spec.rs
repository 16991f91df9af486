//! The names this benchmark fixes: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json`, the README glossary and every
//! printed table are written from these tables, so they cannot disagree.

/// Whether a smaller or a larger value is the better one.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: the layers this workload stresses and why it exists.
    pub why: &'static str,
    /// Wall seconds one round took on the 2-core host at the commit that
    /// defined the benchmark; the watchdog's idea of the expected run time.
    pub nominal_round_s: f64,
    /// Rounds one repeat runs at the default `--seconds` and 3 repeats,
    /// scaled linearly with `--seconds`. A fixed count, not a clock, so
    /// that wire bytes, offload counts and fingerprints repeat exactly at
    /// a given seed. Sized so that an invocation — three set-ups included,
    /// and they cost from 0.05 s to 4 s — takes about 25 s on every
    /// workload: a cheap set-up buys more rounds.
    pub default_rounds: u32,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "train_cifar",
        why: "4 clients, 814k-param CIFAR CNN, dense codec: few large GEMMs, so tensor+nn do \
              nearly all the work and codec/fold/net none; where GEMM threading or fused \
              backward/eval must show",
        nominal_round_s: 1.75,
        default_rounds: 3,
    },
    WorkloadSpec {
        name: "fleet_fmnist",
        why: "32 non-IID clients, 29k-param CNN, top-k codec, 4 edge cohorts: many small GEMMs \
              and 32 tasks on the pool, so per-client fixed costs (runtime, codec, fold, \
              workspace) show here and nowhere else",
        nominal_round_s: 0.95,
        default_rounds: 8,
    },
    WorkloadSpec {
        name: "tcp_cifar",
        why: "coordinator plus 2 client processes over loopback TCP, thin rounds on a 3.3 MB \
              model: proto encode/decode, envelopes, sockets and the per-round checkpoint are a \
              visible share, as deployed",
        nominal_round_s: 0.75,
        default_rounds: 9,
    },
    WorkloadSpec {
        name: "plan_4k",
        why: "timing-mode control plane with 4096 clients: selection, profiler, scheduler, \
              simnet trace, enclave set-up; tensor/nn do nothing, so every kernel change must \
              predict no change here",
        nominal_round_s: 0.125,
        default_rounds: 40,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Rounds one repeat runs: `default_rounds` scaled by the seconds of
/// measuring a repeat gets, relative to the default's `RUN_SECONDS / 3`.
pub fn rounds_for(spec: &WorkloadSpec, seconds: f64, repeats: u32) -> u32 {
    let per_repeat = seconds / f64::from(repeats.max(1));
    let scale = per_repeat / (f64::from(RUN_SECONDS) / 3.0);
    ((f64::from(spec.default_rounds) * scale).round() as u32).max(2)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub definition: &'static str,
}

/// The end-to-end metrics with a bound. `failed_share` is the sixth: it is
/// 0 on a healthy run, so it travels as the `failed` / `attempted` pair of
/// the result line instead of as a bounded metric.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "child start to first timed round: data, partition, enclave, engine, the \
                     serial warm-up round and a fresh engine (tcp_cifar: until the last client \
                     process is spawned)",
    },
    EndToEnd {
        name: "round_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "timed-region wall time / rounds; the region is every step_round plus \
                     finish_run (tcp_cifar: last client spawned until serve returns)",
    },
    EndToEnd {
        name: "cpu_s_per_round",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "user+sys CPU (getrusage, self + waited children) over the timed region / \
                     rounds",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        definition: "VmHWM of the workload child (the coordinator process for tcp_cifar)",
    },
    EndToEnd {
        name: "wire_bytes_per_round",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.005,
        definition: "RunResult::mean_round_bytes(); repeats exactly at a given seed",
    },
];

pub const FAILED_SHARE: &str = "failed_share";

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The public entry point the probe times, or where the count comes from.
    pub probe: &'static str,
    /// The end-to-end metric it should move, and on which workloads.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer is the crate name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("split yields one item")
    }
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    probe: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, probe, moves }
}

use Better::{Higher as H, Lower as L};

pub const PER_LAYER: [PerLayer; 73] = [
    pl(
        "tensor.gemm_nt_gflops",
        "GFLOP/s",
        H,
        "ops::matmul_nt_packed_into, largest conv forward",
        "round_wall_s on train_cifar (most), fleet_fmnist; none on plan_4k",
    ),
    pl(
        "tensor.gemm_nn_gflops",
        "GFLOP/s",
        H,
        "ops::matmul_packed_into, largest conv dx",
        "round_wall_s on train_cifar, fleet_fmnist",
    ),
    pl(
        "tensor.gemm_tn_gflops",
        "GFLOP/s",
        H,
        "ops::matmul_tn_packed_into, largest conv dW",
        "round_wall_s on train_cifar, fleet_fmnist",
    ),
    pl(
        "tensor.im2col_gbps",
        "GB/s",
        H,
        "conv::im2col_into at that shape (patch bytes written)",
        "round_wall_s on train_cifar",
    ),
    pl(
        "tensor.col2im_gbps",
        "GB/s",
        H,
        "conv::col2im_into at that shape (patch bytes read)",
        "round_wall_s on train_cifar",
    ),
    pl(
        "tensor.pack_b_us",
        "us",
        L,
        "PackedB::pack_with on the per-batch im2col operand",
        "round_wall_s on train_cifar, fleet_fmnist",
    ),
    pl(
        "tensor.autotune_s",
        "s",
        L,
        "first gemm::tuned_variant over every layer shape, cold child",
        "setup_s on train_cifar, fleet_fmnist",
    ),
    pl(
        "tensor.gemm_calls_per_round",
        "count",
        L,
        "telemetry snapshot: aergia_gemm_calls_total",
        "count only; Real workloads",
    ),
    pl(
        "tensor.guarded_subtile_share",
        "ratio",
        L,
        "telemetry snapshot: guarded / all subtiles",
        "count only; Real workloads",
    ),
    pl(
        "tensor.modelled_share",
        "ratio",
        L,
        "modelled kernel time per batch x batches per round",
        "share of round_wall_s; 0 on plan_4k",
    ),
    pl(
        "nn.forward_ms",
        "ms",
        L,
        "Cnn::forward_phase",
        "round_wall_s, cpu_s_per_round on train_cifar",
    ),
    pl(
        "nn.backward_ms",
        "ms",
        L,
        "Cnn::backward_phase",
        "round_wall_s, cpu_s_per_round on train_cifar",
    ),
    pl(
        "nn.train_batch_ms",
        "ms",
        L,
        "Cnn::train_batch_with",
        "round_wall_s, cpu_s_per_round on train_cifar",
    ),
    pl(
        "nn.frozen_batch_ms",
        "ms",
        L,
        "Cnn::train_batch_with after freeze_features (straggler path)",
        "round_wall_s on train_cifar, tcp_cifar",
    ),
    pl(
        "nn.eval_ms_per_sample",
        "ms",
        L,
        "Cnn::evaluate_with, batches of 32",
        "round_wall_s on train_cifar (eval is 15-20% of a round), tcp_cifar",
    ),
    pl(
        "nn.fused_forward_speedup",
        "ratio",
        H,
        "N x forward_phase / fused::fused_forward over N members",
        "round_wall_s on fleet_fmnist (N = 32); about 1 on train_cifar",
    ),
    pl(
        "nn.sgd_step_ms",
        "ms",
        L,
        "Sgd::apply on the workload model",
        "round_wall_s on fleet_fmnist",
    ),
    pl(
        "nn.modelled_share",
        "ratio",
        L,
        "train/eval batch time not modelled as tensor kernels",
        "share of round_wall_s; 0 on plan_4k",
    ),
    pl(
        "codec.dense_encode_mbps",
        "MB/s",
        H,
        "dense::encode_payload_into on the model weights",
        "round_wall_s on tcp_cifar (<=2% today)",
    ),
    pl("codec.dense_decode_mbps", "MB/s", H, "dense::decode_payload", "round_wall_s on tcp_cifar"),
    pl(
        "codec.quant_encode_mbps",
        "MB/s",
        H,
        "quant::encode_payload_into (dense-equivalent bytes)",
        "round_wall_s; no workload uses it today",
    ),
    pl(
        "codec.quant_decode_mbps",
        "MB/s",
        H,
        "quant::decode_payload",
        "round_wall_s; no workload uses it today",
    ),
    pl(
        "codec.topk_encode_mbps",
        "MB/s",
        H,
        "topk::encode_payload_into with residuals (dense-equivalent bytes)",
        "round_wall_s on fleet_fmnist",
    ),
    pl("codec.topk_decode_mbps", "MB/s", H, "topk::decode_payload", "round_wall_s on fleet_fmnist"),
    pl(
        "codec.compression_ratio",
        "ratio",
        H,
        "telemetry snapshot: dense-equivalent / encoded bytes",
        "wire_bytes_per_round on fleet_fmnist",
    ),
    pl(
        "codec.envelope_encode_mbps",
        "MB/s",
        H,
        "envelope::encode on a model-size body",
        "round_wall_s on tcp_cifar",
    ),
    pl("codec.envelope_read_mbps", "MB/s", H, "envelope::read_from", "round_wall_s on tcp_cifar"),
    pl(
        "codec.partial_roundtrip_ms",
        "ms",
        L,
        "partial::encode + decode of one edge partial",
        "round_wall_s on fleet_fmnist",
    ),
    pl(
        "codec.modelled_share",
        "ratio",
        L,
        "payload encode+decode per participant, partials per edge",
        "share of round_wall_s",
    ),
    pl("data.generate_s", "s", L, "DataConfig::generate_pair", "setup_s on all"),
    pl("data.partition_s", "s", L, "Partition::split", "setup_s on all"),
    pl(
        "data.next_batch_us",
        "us",
        L,
        "Batcher::next_batch_into",
        "round_wall_s on Real workloads (time a step waits for data)",
    ),
    pl(
        "data.modelled_share",
        "ratio",
        L,
        "next_batch x batches per round",
        "share of round_wall_s",
    ),
    pl(
        "enclave.similarity_matrix_s",
        "s",
        L,
        "attest, seal, submit, compute_similarity_matrix for N clients",
        "setup_s on plan_4k (N = 4096), fleet_fmnist",
    ),
    pl(
        "simnet.events_per_s",
        "1/s",
        H,
        "EventQueue::push / pop at the round's event count",
        "round_wall_s on plan_4k",
    ),
    pl(
        "simnet.modelled_share",
        "ratio",
        L,
        "modelled events per round / events_per_s",
        "share of round_wall_s; plan_4k",
    ),
    pl(
        "core.schedule_ms",
        "ms",
        L,
        "scheduler::schedule over N ClientPerf with the engine's similarity matrix",
        "round_wall_s on plan_4k; about 0 elsewhere",
    ),
    pl(
        "core.fold_flat_ms",
        "ms",
        L,
        "fold::weighted_flat over min(N, 64) updates",
        "round_wall_s on fleet_fmnist",
    ),
    pl(
        "core.fold_hier_ms",
        "ms",
        L,
        "fold::weighted_hierarchical(.., parallel = true)",
        "round_wall_s on fleet_fmnist",
    ),
    pl(
        "core.evaluate_global_ms",
        "ms",
        L,
        "Engine::evaluate_global",
        "round_wall_s on Real workloads",
    ),
    pl("core.checkpoint_save_ms", "ms", L, "Engine::save_checkpoint", "round_wall_s on tcp_cifar"),
    pl(
        "core.checkpoint_restore_ms",
        "ms",
        L,
        "Engine::restore_checkpoint",
        "resume time only; not in a round",
    ),
    pl(
        "core.checkpoint_bytes",
        "bytes",
        L,
        "length of the save_checkpoint buffer",
        "round_wall_s on tcp_cifar",
    ),
    pl(
        "core.engine_new_s",
        "s",
        L,
        "Engine::with_topology (median of the set-up's two constructions)",
        "setup_s on all",
    ),
    pl(
        "core.parallel_speedup",
        "ratio",
        H,
        "round wall at parallelism = 1 / at parallelism = 0, same warm child",
        "round_wall_s vs cpu_s_per_round on train_cifar, fleet_fmnist",
    ),
    pl(
        "core.modelled_share",
        "ratio",
        L,
        "schedule + fold + checkpoint per round",
        "share of round_wall_s",
    ),
    pl(
        "core.unattributed_share",
        "ratio",
        L,
        "1 - sum of the modelled layer shares",
        "coverage, reported not gated",
    ),
    pl(
        "core.offloads_per_round",
        "count",
        L,
        "RunResult",
        "exact count; a change is a semantic change",
    ),
    pl(
        "core.dropped_per_round",
        "count",
        L,
        "RunResult",
        "exact count; a change is a semantic change",
    ),
    pl(
        "core.sim_round_s",
        "s",
        L,
        "RunResult::mean_round_secs (virtual clock)",
        "exact; a change is a semantic change",
    ),
    pl(
        "core.final_accuracy",
        "ratio",
        H,
        "RunResult::final_accuracy (0 in timing mode)",
        "exact; a change is a semantic change",
    ),
    pl(
        "net.order_encode_ms",
        "ms",
        L,
        "TrainOrderMsg::encode with a model-size round_base",
        "round_wall_s on tcp_cifar",
    ),
    pl("net.order_decode_ms", "ms", L, "TrainOrderMsg::decode", "round_wall_s on tcp_cifar"),
    pl("net.reply_encode_ms", "ms", L, "TrainReplyMsg::encode", "round_wall_s on tcp_cifar"),
    pl("net.reply_decode_ms", "ms", L, "TrainReplyMsg::decode", "round_wall_s on tcp_cifar"),
    pl(
        "net.loopback_rtt_ms",
        "ms",
        L,
        "model-size envelope written and read back over a loopback socket pair",
        "round_wall_s on tcp_cifar",
    ),
    pl(
        "net.overhead_ratio",
        "ratio",
        L,
        "tcp_cifar round_wall_s / in-process round_wall_s of the same config (0 elsewhere)",
        "round_wall_s on tcp_cifar",
    ),
    pl(
        "net.client_peak_rss_mib",
        "MiB",
        L,
        "ru_maxrss of the waited client processes (0 elsewhere)",
        "peak_rss_mib on tcp_cifar",
    ),
    pl(
        "net.drops",
        "count",
        L,
        "RunOutcome dropped participants (0 elsewhere)",
        "failed_share on tcp_cifar",
    ),
    pl(
        "net.modelled_share",
        "ratio",
        L,
        "order/reply encode+decode and two loopback transfers per participant",
        "share of round_wall_s; tcp_cifar only",
    ),
    pl(
        "runtime.spawn_us",
        "us",
        L,
        "empty jobs through ThreadPool::global().scope",
        "round_wall_s, cpu_s_per_round on fleet_fmnist",
    ),
    pl(
        "runtime.allocs_per_round",
        "count",
        L,
        "gated CountingAllocator over the timed rounds (traced child only)",
        "cpu_s_per_round on fleet_fmnist, train_cifar",
    ),
    pl(
        "runtime.modelled_share",
        "ratio",
        L,
        "spawn_us x client and edge tasks per round (GEMM tile jobs not counted)",
        "share of round_wall_s",
    ),
    pl(
        "telemetry.trace_overhead_ratio",
        "ratio",
        L,
        "traced round_wall_s / untraced round_wall_s",
        "none; the cost of --traced",
    ),
    pl(
        "span.engine_new_s",
        "s",
        L,
        "benchmark span around the timed engine's construction",
        "setup_s",
    ),
    pl("span.warmup_round_s", "s", L, "benchmark span around the serial warm-up round", "setup_s"),
    pl("span.step_round_median_s", "s", L, "median of the step_round[i] spans", "round_wall_s"),
    pl("span.step_round_max_s", "s", L, "slowest step_round[i] span", "round_wall_s"),
    pl("span.finish_run_s", "s", L, "benchmark span around finish_run", "round_wall_s"),
    pl(
        "span.serve_s",
        "s",
        L,
        "benchmark span around coordinator::serve (0 in-process)",
        "round_wall_s on tcp_cifar",
    ),
    pl(
        "span.spawn_clients_s",
        "s",
        L,
        "benchmark span around spawning the client processes (0 in-process)",
        "setup_s on tcp_cifar",
    ),
    pl("span.probes_s", "s", L, "wall time of all layer probes", "none; the cost of --traced"),
    pl("span.count", "count", L, "spans written to the trace file", "none"),
];

/// Seconds one run measures when called the builder's way; also the
/// default of `--seconds`.
pub const RUN_SECONDS: u32 = 15;

/// `BENCHMARK.json`, written from the tables above.
pub fn benchmark_json() -> String {
    use crate::report::Json;
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj(vec![
        ("command", Json::Arr(command.iter().map(|s| Json::str(*s)).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(u64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

/// The README's workload table and glossary, as markdown.
pub fn glossary_markdown() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("| workload | rounds per repeat | why it exists |\n|---|---|---|\n");
    for w in &WORKLOADS {
        let rounds = rounds_for(w, f64::from(RUN_SECONDS), 3);
        let _ = writeln!(out, "| `{}` | {rounds} | {} |", w.name, w.why);
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {}% | {} |",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0,
            m.definition
        );
    }
    let _ = writeln!(
        out,
        "| `{FAILED_SHARE}` | ratio | lower | no increase | failed / attempted rounds over every \
         child run; reported as the `failed` and `attempted` keys of the result line |"
    );
    out.push_str("\n| per-layer metric | layer | unit | better | probe | should move |\n|---|---|---|---|---|---|\n");
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} |",
            m.name,
            m.layer(),
            m.unit,
            m.better.label(),
            m.probe,
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(name.len() <= 64 && seen.insert(name), "bad or duplicate name {name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16, "unit {unit} too long");
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
