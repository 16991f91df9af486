#!/usr/bin/env bash
# Every CI check, one command away: `scripts/ci.sh JOB...` runs the named
# jobs of .github/workflows/ci.yml, which adds only runner wiring. A job
# runs in the environment it is given, so a matrix leg is the variable CI
# sets: AERGIA_FORCE_SCALAR for `test`, AERGIA_THREADS for `runtime`.
# With no argument it runs every job once per CI leg (`test` at
# AERGIA_FORCE_SCALAR 0 and 1, `runtime` at AERGIA_THREADS 1, 2 and 4),
# each in its own process, prints one PASS/FAIL line with the wall time
# per leg and exits non-zero if any leg failed. No job needs the network.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=(build test runtime fmt lint-logging telemetry clippy examples docs
    e2e-net scale-smoke benchmark-smoke bench-regression)

# `cargo test ARGS -- FILTER...`. A filter that names no test still exits
# 0 ("0 passed; N filtered out"), so a renamed test would only drop out of
# the run: each filter must first match a name the targets list.
filtered() {
    local args=() names filter
    while [ "$1" != -- ]; do args+=("$1") && shift; done
    shift
    names=$(cargo test "${args[@]}" -- --list | sed -n 's/: test$//p')
    for filter; do
        grep -qF -- "$filter" <<<"$names" ||
            { echo "no test matches '$filter' in: cargo test ${args[*]}" >&2 && return 1; }
    done
    cargo test "${args[@]}" -- "$@"
}

# The "stays gone" rules, one row of scripts/gone.tsv each, after its
# header: an extended regex; the paths `grep -r` searches (globs expand);
# one `grep -vE` over the `path:line:text` hits that drops the sanctioned
# ones (`-` for none); the number of hits that must remain (0 for a ban);
# and the reason printed when another number does. A grep error (status
# 2: a bad regex, or a path that does not exist) fails the row instead of
# reading as "no match".
gone() {
    local pattern paths excl want reason hits n bad=0
    {
        read -r
        while IFS=$'\t' read -r pattern paths excl want reason || [ -n "$pattern" ]; do
            # shellcheck disable=SC2086 # $paths is a word list with globs
            hits=$(grep -rnE -- "$pattern" $paths || [ $? = 1 ]) ||
                { echo "FAIL scripts/gone.tsv /$pattern/: grep error in $paths" && bad=1 && continue; }
            [ "$excl" = - ] || hits=$(grep -vE -- "$excl" <<<"$hits" || [ $? = 1 ])
            n=$(grep -c . <<<"$hits" || true)
            if [ "$n" != "$want" ]; then
                echo "FAIL scripts/gone.tsv /$pattern/ in $paths: $n hit(s), want $want: $reason"
                echo "$hits" && bad=1
            fi
        done
    } <scripts/gone.tsv
    return "$bad"
}

job_build() { cargo build --release --workspace; }

# The dispatch matrix: the default leg exercises whatever SIMD tier the
# CPU offers (AVX-512 or AVX2+FMA on GitHub's fleet); the forced-scalar
# leg pins the portable kernels, so the scalar path — the bit-identity
# reference for every wider tier — stays green on its own.
job_test() {
    cargo test -q --workspace
    # Whether Algorithm 1's lane code (`calc_op`, the lane distances, the
    # group bounds, line 24's bound) compiles to vector code follows the
    # optimisation level, so its oracles (lane and scalar `calc_op`
    # against the linear scan, line 24's bound at ties and signs, a cost
    # tie across groups, lane distances against `distance`, group bounds
    # below every member's distance, the merge of supports whose boxes
    # meet, the pruned, bounded and grouped scans against the unpruned
    # loop), the event heap and the plan_4k pin also run in release mode.
    filtered --release -p aergia --lib -- calc_op line_24 exact_tie_across_groups
    filtered --release -p aergia-enclave -- distances_match_distance_in_every_lane
    filtered --release -p aergia-enclave -- group_bounds boxes_meet
    cargo test --release -p aergia-simnet
    filtered --release --test proptests -- calc_op pruned_schedule bounded_scan grouped_scan
    filtered --release --test determinism -- plan_4k_round_records_are_pinned
}

# The pool's contract (every chunk claimed once at fixed boundaries, no
# outer task stacked on another, panics surfaced, allocation budget), the
# dataset render's golden bits and every parallel result below hold
# whatever the global pool's size (AERGIA_THREADS).
job_runtime() {
    cargo test -q -p aergia-runtime
    cargo test -q -p aergia-data
    # Parallel per-edge folds give the reference bits at every pool size.
    filtered -q --test proptests -- fold
    # The engine's workspace shelf holds one workspace per task that ran
    # at once, never one per client; an offload run by whichever task
    # finishes its later party, next to bystanders still training, keeps
    # the serial bits.
    filtered -q -p aergia --lib -- training_workspaces_follow_pool_width_not_participants
    # The eval walk splits into one shard per pool thread, each running
    # the cache-free inference forward: every split gives the serial
    # walk's bits, and the inference forward the training forward's.
    filtered -q -p aergia --lib -- sharded_eval_equals_the_serial_walk
    filtered -q -p aergia-nn --lib -- inference_forward_equals_the_training_forward
    # The implicit-GEMM convolution (patches read through an offset table
    # from a padded input): the forward, the transposed k-blocked dW over
    # dy packed from NCHW and dx, the forward convolution of the padded dy
    # against the flipped kernel, equal their explicit im2col oracles bit
    # for bit on one thread or several (C·kh·kw = 27, 196-pixel images,
    # chains crossing a k-block, batch 1, more images than threads) and dx
    # stays within col2im's reordering bound; a k-block continuing stored
    # partial sums continues the one-call chain; every entry, on every
    # variant, runs the fused multiply-add chain.
    filtered -q -p aergia-tensor --lib -- implicit_patches
    filtered -q -p aergia-tensor --lib -- accumulate_entry
    filtered -q -p aergia-tensor --lib -- fused_chain_is_the_contract_on_every_variant
}

job_fmt() { cargo fmt --all --check; }

# Pure grep and sed, no toolchain.
job_lint-logging() {
    # Every AERGIA_* variable read under crates/ is in the table in
    # docs/architecture.md: a knob cannot come back unannounced.
    scripts/check_env_knobs.sh
    # Every `pub fn` under crates/*/src has a caller in another crate or a
    # reasoned entry in scripts/pub_surface_allow.txt; a stale entry fails
    # too, so the list only shrinks.
    scripts/check_pub_surface.sh
    gone
}

# The layer's unit tests (bucket edges, JSONL field order, disabled-mode
# zero allocation) and the end-to-end pins (same-seed runs emit identical
# JSONL, telemetry leaves training bit-identical, every metric family is
# documented): also run in `test`, kept visible as a check of their own.
job_telemetry() {
    cargo test -q -p aergia-telemetry
    cargo test -q --test telemetry
}

job_clippy() { cargo clippy --workspace --all-targets -- -D warnings; }

# quickstart is the README's first command and must not rot;
# networked_round asserts a TCP round is bit-identical to the in-process
# one. (Scenarios and codecs are figures, run by bench-regression.)
job_examples() {
    AERGIA_SCALE=smoke cargo run --release --example quickstart
    AERGIA_SCALE=smoke cargo run --release --example networked_round
}

# Broken intra-doc links are denied explicitly (rustdoc only warns on a
# plausible target, and the docs/ guides lean on item links staying live);
# every `# Examples` snippet must keep compiling and passing.
job_docs() {
    RUSTDOCFLAGS="-D warnings -D rustdoc::broken-intra-doc-links" cargo doc --no-deps --workspace
    cargo test -q --workspace --doc
}

# Kills and respawns the coordinator, crashes a client mid-upload, and
# serves churn, async and Byzantine runs over TCP: every networked run is
# bit-identical to the in-process simulator. Run directories (checkpoints,
# outcomes, per-process stderr) land under target/e2e/ for CI's artifact.
job_e2e-net() {
    AERGIA_SCALE=smoke cargo test -p aergia-net --test e2e
    AERGIA_SCALE=smoke cargo test -p aergia-net --test scenario_parity
}

# The memory-model gate: the 100k-simulated / 1k-trained point (smoke) and
# the 1M / 10k point (default), each in its own process under a peak-RSS
# ceiling the figure enforces (VmHWM): resident client state follows the
# participation cap, not the population. The logs are CI's artifact.
job_scale-smoke() {
    AERGIA_SCALE=smoke AERGIA_RSS_LIMIT_MB=1024 \
        cargo bench --bench figures -- scaleout_100k 2>&1 | tee scaleout-smoke.log
    AERGIA_SCALE=default AERGIA_RSS_LIMIT_MB=2048 \
        cargo bench --bench figures -- scaleout_100k 2>&1 | tee scaleout-1m.log
}

# Two rounds of every workload, invoked as a parent/change comparison
# invokes them: each exits 0, passes every correctness check and fails no
# round (timings are not gated here). Cold parallel starts (no serial
# warm-up round) never hang. A build can rewrite benchmark/Cargo.lock: it
# is put back as it was found.
job_benchmark-smoke() {
    local lock workload out
    lock=$(mktemp)
    cp benchmark/Cargo.lock "$lock"
    trap "cp '$lock' benchmark/Cargo.lock && rm -f '$lock'" EXIT
    cargo build --release --manifest-path benchmark/Cargo.toml
    for workload in train_cifar fleet_fmnist tcp_cifar plan_4k; do
        out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed 7 --rounds 2 --trace 0 | tail -n 1)
        echo "$workload: $out"
        grep -q '"correct": true' <<<"$out"
        grep -q '"failed": 0,' <<<"$out"
    done
    out=$(cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --probe-cold-start 6)
    echo "$out"
    grep -q '^tensor.cold_start_hang_share 0 ratio' <<<"$out"
}

job_bench-regression() {
    local sha
    # Footprints only a process of its own can measure (allocs_per_round,
    # wire bytes per codec, resident_client_bytes) equal constants in
    # bench_smoke's source, and the telemetry engine counters equal the
    # sums over the same runs' RunResults.
    cargo run --release -p aergia-bench --bin bench_smoke
    # The fig6-smoke sha: fig6_iid's smoke stdout prints no wall-clock, so
    # its digest pins every decision of 15 runs (3 datasets × 5
    # algorithms). A change that moves it on purpose re-pins it here.
    sha=$(AERGIA_SCALE=smoke cargo bench --bench figures -- fig6_iid 2>/dev/null | sha256sum)
    echo "$sha"
    [ "${sha%% *}" = d7136b1c58cc3c1e2819b906b4809ae0415e2831dbbdd241b78d26fbd2b6211a ]
    # Every figure at smoke scale; fig6_iid and fig7_noniid fail unless
    # Aergia's total virtual time beats every baseline's (FedAvg, FedProx,
    # FedNova, TiFL) on every dataset. Timing claims live in benchmark/.
    AERGIA_SCALE=smoke cargo bench --bench figures
}

if [ $# -gt 0 ]; then
    for job; do
        [[ " ${JOBS[*]} " = *" $job "* ]] || { echo "unknown job '$job'; jobs: ${JOBS[*]}" >&2 && exit 2; }
        "job_$job"
    done
    exit 0
fi

legs=() failed=0
leg() { # leg JOB [VAR=VALUE]
    local start=$SECONDS verdict=PASS
    echo "== scripts/ci.sh $*"
    env "${@:2}" bash scripts/ci.sh "$1" || { verdict=FAIL && failed=$((failed + 1)); }
    legs+=("$verdict $* $((SECONDS - start)) s")
}
for job in "${JOBS[@]}"; do
    case $job in
        test) leg test AERGIA_FORCE_SCALAR=0 && leg test AERGIA_FORCE_SCALAR=1 ;;
        runtime) for threads in 1 2 4; do leg runtime AERGIA_THREADS=$threads; done ;;
        *) leg "$job" ;;
    esac
done
printf '%s\n' "${legs[@]}"
echo "$failed of ${#legs[@]} legs failed"
[ "$failed" = 0 ]
