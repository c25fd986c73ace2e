//! Service-loop harness: drives [`diads_service::DiagnosisService`] over the
//! full `all_scenarios()` tenant mix and reports the continuous-loop
//! observables — the cycle-latency spectrum (p50/p99/p999 via
//! [`diads_stats::LatencySpectrum`] inside [`diads_service::ServiceStats`]),
//! the staleness spectrum (wall-clock age of the oldest undiagnosed point at
//! each diagnosis), event throughput on the bounded service bus, warm-hit rate
//! and backpressure drops. Both a 1-thread and an N-thread column land in
//! `BENCH_diads.json` (group `service`); on a single-core host the N-thread
//! numbers are a correctness-under-contention floor, not a scaling claim.
//!
//! A busy subscriber with a small bounded queue is attached for the whole run,
//! so the drop-counting backpressure path is exercised under load, never
//! blocking a diagnosis cycle.
//!
//! Run with `cargo run --release -p diads-bench --bin service_bench`. Pass
//! `--smoke` for the CI-sized loop (few tenants/cycles; numbers are
//! meaningless — write them somewhere disposable: `service_bench --smoke
//! /tmp/BENCH_smoke.json`). The harness *splices* its `service` group into an
//! existing `BENCH_diads.json` (regenerate with `bench_diads` first).

use std::time::Instant;

use diads_inject::scenarios::all_scenarios;
use diads_service::{DiagnosisService, ServiceConfig, ServiceStats};

/// One measured pass at a fixed thread count.
struct ServiceRun {
    stats: ServiceStats,
    elapsed_secs: f64,
    events: u64,
}

fn build_service(tenants: usize) -> DiagnosisService {
    // The full Table-1 mix (smoke truncates it): every tenant is a different
    // fault shape, so warm-slot sharing across tenants is never an accident.
    let mut scenarios = all_scenarios();
    scenarios.truncate(tenants.max(1));
    DiagnosisService::new(&scenarios, ServiceConfig::default())
}

fn run_pass(service: &DiagnosisService, threads: usize, cycles: u64) -> ServiceRun {
    let before = service.stats();
    // A deliberately tiny subscriber queue that is never drained during the
    // pass: publishes beyond its capacity take the counted-drop path.
    let rx = service.hub().subscribe(64);
    let started = Instant::now();
    service.run_cycles(cycles, threads);
    let elapsed_secs = started.elapsed().as_secs_f64();
    drop(rx);
    let stats = service.stats();
    let events = stats.events_published - before.events_published;
    ServiceRun { stats, elapsed_secs, events }
}

fn pass_json(run: &ServiceRun, before: &ServiceStats, threads: usize) -> String {
    let s = &run.stats;
    let v = |o: Option<f64>| o.unwrap_or(f64::NAN);
    format!(
        "{{\"threads\": {threads}, \"cycles\": {}, \"skipped_cycles\": {}, \"cycles_per_sec\": {:.1}, \"cycle_p50_ms\": {:.4}, \"cycle_p99_ms\": {:.4}, \"cycle_p999_ms\": {:.4}, \"staleness_p50_ms\": {:.4}, \"staleness_p99_ms\": {:.4}, \"events\": {}, \"events_per_sec\": {:.0}, \"events_dropped\": {}}}",
        s.cycles - before.cycles,
        s.skipped_cycles - before.skipped_cycles,
        (s.cycles - before.cycles) as f64 / run.elapsed_secs,
        v(s.cycle_latency.p50_ms),
        v(s.cycle_latency.p99_ms),
        v(s.cycle_latency.p999_ms),
        v(s.staleness.p50_ms),
        v(s.staleness.p99_ms),
        run.events,
        run.events as f64 / run.elapsed_secs,
        s.events_dropped,
    )
}

/// Splices the `service` line into `BENCH_diads.json`: any previous `service`
/// line is replaced, every other group is preserved verbatim, and a missing
/// file gets a minimal skeleton (CI smoke runs write to a disposable path).
fn splice_service_group(out_path: &str, service_line: &str) {
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
            !t.is_empty() && t != "}" && !t.starts_with("\"service\"")
        })
        .map(String::from)
        .collect();
    if let Some(last) = lines.last_mut() {
        if !last.ends_with(',') && !last.ends_with('{') {
            last.push(',');
        }
    }
    lines.push(format!("  \"service\": {service_line}"));
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

    let tenants = if smoke { 4 } else { 14 };
    let cycles: u64 = if smoke { 12 } else { 200 };
    // On a single-core container the multi-thread column still runs (contention
    // correctness floor); max(2) guarantees it is a genuinely concurrent pass.
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(2, 8);

    eprintln!("service_bench: building service over {tenants} tenants…");
    let service = build_service(tenants);

    eprintln!("service_bench: 1-thread pass ({cycles} cycles/tenant)…");
    let before_one = service.stats();
    let one = run_pass(&service, 1, cycles);
    eprintln!("service_bench: {max_threads}-thread pass…");
    let before_multi = service.stats();
    let multi = run_pass(&service, max_threads, cycles);

    let final_stats = service.stats();
    let policy = ServiceConfig::default().seal_policy;
    let service_line = format!(
        "{{\"tenants\": {tenants}, \"cycles_per_tenant\": {cycles}, \"scenario_mix\": \"all_scenarios (paper_default timeline)\", \"seal_policy\": {{\"min_points\": {}, \"max_interval_secs\": {}}}, \"warm_hit_rate\": {:.4}, \"stats\": {}, \"pass_one_thread\": {}, \"pass_multi_thread\": {}}}",
        policy.min_points,
        policy.max_interval.as_secs(),
        final_stats.warm_hit_rate(),
        final_stats.to_json(),
        pass_json(&one, &before_one, 1),
        pass_json(&multi, &before_multi, max_threads),
    );
    splice_service_group(&out_path, &service_line);
}
