//! Fleet-scale load harness: T tenant threads drive K independent testbeds
//! through continuous record → seal → diagnose_incremental → plan cycles against
//! ONE shared lock-striped [`DiagnosisEngine`], reporting what a mean would hide —
//! the diagnosis latency *spectrum* (p50/p99/p999 via
//! [`diads_stats::LatencySpectrum`]), sustained ingestion throughput through the
//! batched sharded writer, the engine's warm-hit rate, and eviction counts. Both a
//! 1-thread and an N-thread column land in `BENCH_diads.json` (group `fleet`);
//! on a single-core host the N-thread numbers are a correctness-under-contention
//! floor, not a scaling claim.
//!
//! One tenant cycle, per testbed:
//!
//! 1. **seal** — take a [`diads_core::DiagnosisWatermark`] at the state the last
//!    diagnosis was checked in under;
//! 2. **record** — append a probe point beyond every diagnosed run window (a new
//!    store epoch: the steady-state "more metrics landed" regime);
//! 3. **diagnose_incremental** — the timed step: replay the unchanged evidence
//!    through the shared engine (warm slot checkout, atomic stats);
//! 4. **plan** — derive remediation candidates from the fresh report; each
//!    tenant's final cycle runs the full what-if-evaluated
//!    [`diads_core::Planner::plan`] so the whole remediation path stays exercised
//!    without drowning the latency spectrum in executor time.
//!
//! Run with `cargo run --release -p diads-bench --bin fleet_bench`. Pass `--smoke`
//! for the CI-sized fleet (tiny K/cycles; numbers are meaningless — write them
//! somewhere disposable: `fleet_bench --smoke /tmp/BENCH_smoke.json`). The harness
//! *splices* its `fleet` group into an existing `BENCH_diads.json` (regenerate
//! with `bench_diads` first, then run this binary).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use diads_core::{DiagnosisEngine, Planner, ScenarioOutcome, Testbed};
use diads_inject::scenarios::{
    compound_config_and_contention_scenario, scenario_1, scenario_3, scenario_5, Scenario, ScenarioTimeline,
};
use diads_monitor::{ComponentId, Duration, MetricName, MetricStore, Timestamp};
use diads_stats::LatencySpectrum;

/// One tenant's mutable state: its testbed outcome plus the monotonically
/// advancing probe clock (kept past every run window so each append stays in the
/// incremental fast path).
struct Tenant {
    outcome: ScenarioOutcome,
    host: ComponentId,
    metric: MetricName,
    probe_time: Timestamp,
}

/// The measured result of one fleet pass at a fixed thread count.
struct FleetRun {
    cycles: usize,
    elapsed_secs: f64,
    spectrum: LatencySpectrum,
    warm_checkouts: u64,
    cold_checkouts: u64,
    evictions: u64,
}

fn scenario_mix(count: usize) -> Vec<Scenario> {
    let t = ScenarioTimeline::short();
    let ctors: [fn(ScenarioTimeline) -> Scenario; 4] =
        [scenario_1, scenario_3, scenario_5, compound_config_and_contention_scenario];
    (0..count).map(|i| ctors[i % ctors.len()](t)).collect()
}

/// Builds the tenant fleet: K testbeds over the scenario mix, every outcome
/// re-pointed at the one shared engine and warm-diagnosed once so the measured
/// cycles start from the steady state.
fn build_fleet(count: usize, engine: &Arc<DiagnosisEngine>) -> Vec<Mutex<Tenant>> {
    scenario_mix(count)
        .iter()
        .enumerate()
        .map(|(i, scenario)| {
            let mut outcome = Testbed::run_scenario(scenario);
            outcome.testbed.engine = Arc::clone(engine);
            let _ = outcome.diagnose(); // record evidence into the shared engine
            let probe_time = outcome
                .history
                .runs
                .iter()
                .map(|r| r.record.end)
                .max()
                .expect("scenario produced runs")
                .plus(Duration::from_mins(10));
            Mutex::new(Tenant {
                outcome,
                host: ComponentId::server(format!("fleet-host-{i:02}")),
                metric: MetricName::Custom(format!("fleetProbe{i:02}")),
                probe_time,
            })
        })
        .collect()
}

/// Runs `cycles` tenant cycles per testbed, the fleet partitioned round-robin
/// across `threads` worker threads (each tenant owned by exactly one thread, so
/// the total work is constant across thread counts and the comparison isolates
/// engine/store contention).
fn run_fleet(tenants: &[Mutex<Tenant>], engine: &DiagnosisEngine, threads: usize, cycles: usize) -> FleetRun {
    let threads = threads.min(tenants.len()).max(1);
    let before = engine.stats();
    let spectra: Mutex<Vec<LatencySpectrum>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let spectra = &spectra;
            scope.spawn(move || {
                let mut spectrum = LatencySpectrum::new();
                for cycle in 0..cycles {
                    for (i, slot) in tenants.iter().enumerate() {
                        if i % threads != worker {
                            continue;
                        }
                        let mut tenant = slot.lock().expect("tenant lock poisoned");
                        let Tenant { outcome, host, metric, probe_time } = &mut *tenant;
                        // seal at the state the last diagnosis was checked in
                        // under (watermark fingerprint == the warm slot's)...
                        let wm = outcome.seal_watermark();
                        // ...record: one probe past every run window (a fresh
                        // epoch on top of the sealed one)...
                        *probe_time = probe_time.plus(Duration::from_secs(30));
                        outcome.testbed.store.record(host, metric, *probe_time, cycle as f64);
                        // ...diagnose_incremental (the timed step)...
                        let t0 = Instant::now();
                        let report = outcome.diagnose_incremental(&wm);
                        spectrum.record(t0.elapsed().as_nanos() as f64);
                        // ...plan: candidate derivation every cycle, one full
                        // what-if-evaluated plan per tenant on the final cycle.
                        let planner = Planner::for_outcome(outcome);
                        let candidates = planner.candidates(&report, &outcome.testbed);
                        std::hint::black_box(candidates.len());
                        if cycle + 1 == cycles {
                            std::hint::black_box(planner.plan(&report, &outcome.testbed).ranked.len());
                        }
                    }
                }
                spectra.lock().expect("spectra lock poisoned").push(spectrum);
            });
        }
    });
    let elapsed_secs = started.elapsed().as_secs_f64();
    let after = engine.stats();
    let mut merged = LatencySpectrum::new();
    for s in spectra.into_inner().expect("spectra lock poisoned").iter() {
        merged.merge(s);
    }
    FleetRun {
        cycles: merged.len(),
        elapsed_secs,
        spectrum: merged,
        warm_checkouts: after.warm_checkouts - before.warm_checkouts,
        cold_checkouts: after.cold_checkouts - before.cold_checkouts,
        evictions: after.evictions - before.evictions,
    }
}

/// Measures sustained ingestion through the batched sharded writer: `threads`
/// workers record disjoint component streams into one store. Returns points/sec.
fn measure_ingestion(threads: usize, components: usize, points_per_key: usize) -> f64 {
    let mut store = MetricStore::new();
    let keys: Vec<_> = (0..components)
        .map(|i| store.intern(&ComponentId::volume(format!("F{i:02}")), &MetricName::WriteIo))
        .collect();
    let started = Instant::now();
    {
        let writer = store.sharded_writer();
        std::thread::scope(|scope| {
            for chunk in keys.chunks(components.div_ceil(threads)) {
                let writer = &writer;
                scope.spawn(move || {
                    let mut batched = writer.batched();
                    for t in 0..points_per_key as u64 {
                        for &key in chunk {
                            batched.record_key(key, Timestamp::new(t * 60), t as f64);
                        }
                    }
                });
            }
        });
    }
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(store.point_count(), components * points_per_key);
    (components * points_per_key) as f64 / secs
}

fn warm_rate(run: &FleetRun) -> f64 {
    let total = run.warm_checkouts + run.cold_checkouts;
    if total == 0 {
        return f64::NAN;
    }
    run.warm_checkouts as f64 / total as f64
}

fn diagnosis_json(run: &mut FleetRun, threads: usize) -> String {
    let ms = |v: Option<f64>| v.map(|ns| ns / 1e6).unwrap_or(f64::NAN);
    format!(
        "{{\"threads\": {threads}, \"cycles\": {}, \"cycles_per_sec\": {:.1}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"p999_ms\": {:.4}, \"warm_hit_rate\": {:.4}, \"evictions\": {}}}",
        run.cycles,
        run.cycles as f64 / run.elapsed_secs,
        ms(run.spectrum.p50()),
        ms(run.spectrum.p99()),
        ms(run.spectrum.p999()),
        warm_rate(run),
        run.evictions
    )
}

/// Splices the `fleet` line into `BENCH_diads.json`: any previous `fleet` line is
/// replaced, every other group is preserved verbatim, and a missing file gets a
/// minimal skeleton (CI smoke runs write to a disposable path).
fn splice_fleet_group(out_path: &str, fleet_line: &str) {
    let existing = std::fs::read_to_string(out_path).unwrap_or_else(|_| {
        format!(
            "{{\n  \"schema\": \"diads-bench-v1\",\n  \"environment\": {{\"threads\": {}, \"profile\": \"{}\"}},\n}}\n",
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            if cfg!(debug_assertions) { "debug" } else { "release" }
        )
    });
    let mut lines: Vec<String> = existing
        .lines()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && t != "}" && !t.starts_with("\"fleet\"")
        })
        .map(String::from)
        .collect();
    if let Some(last) = lines.last_mut() {
        if !last.ends_with(',') && !last.ends_with('{') {
            last.push(',');
        }
    }
    lines.push(format!("  \"fleet\": {fleet_line}"));
    lines.push("}".to_string());
    let json = lines.join("\n") + "\n";
    std::fs::write(out_path, &json).expect("write BENCH_diads.json");
    println!("\n--- {out_path} ---\n{json}");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let out_path = args.into_iter().next().unwrap_or_else(|| "BENCH_diads.json".to_string());

    let testbeds = if smoke { 4 } else { 8 };
    let cycles = if smoke { 10 } else { 400 };
    let ingest_points = if smoke { 200 } else { 2_000 };
    // On a single-core container the multi-thread column still runs (contention
    // correctness floor); max(2) guarantees it is a genuinely concurrent pass.
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(2, 8);

    eprintln!("fleet_bench: building {testbeds} testbeds…");
    let engine = DiagnosisEngine::shared();
    let tenants = build_fleet(testbeds, &engine);

    eprintln!("fleet_bench: 1-thread pass ({cycles} cycles/testbed)…");
    let mut one = run_fleet(&tenants, &engine, 1, cycles);
    eprintln!("fleet_bench: {max_threads}-thread pass…");
    let mut multi = run_fleet(&tenants, &engine, max_threads, cycles);

    const INGEST_COMPONENTS: usize = 64;
    let ingest_one = measure_ingestion(1, INGEST_COMPONENTS, ingest_points);
    let ingest_multi = measure_ingestion(max_threads, INGEST_COMPONENTS, ingest_points);

    let fleet_line = format!(
        "{{\"testbeds\": {testbeds}, \"cycles_per_testbed\": {cycles}, \"scenario_mix\": \"scenario-1/3/5 + compound_config_contention (short timeline)\", \"ingestion\": {{\"series\": {INGEST_COMPONENTS}, \"points_per_series\": {ingest_points}, \"one_thread_points_per_sec\": {ingest_one:.0}, \"multi_thread_points_per_sec\": {ingest_multi:.0}, \"multi_threads\": {max_threads}}}, \"diagnosis_one_thread\": {}, \"diagnosis_multi_thread\": {}}}",
        diagnosis_json(&mut one, 1),
        diagnosis_json(&mut multi, max_threads),
    );
    splice_fleet_group(&out_path, &fleet_line);
}
