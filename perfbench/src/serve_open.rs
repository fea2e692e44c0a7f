//! The `serve-open` workload: an open loop of seeded arrivals into
//! `elba_core::Server`. Each job simulates and assembles its own small
//! genome; latency is timed from each job's due time, so a late
//! generator or a full queue shows up in the numbers instead of hiding
//! in them.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use elba_comm::Backend;
use elba_core::{JobOutcome, JobSpec, ServeConfig, Server};
use elba_graph::SeedChaining;
use elba_mem::MemBudget;

use crate::assembly::{self, setup};
use crate::harness::{self, run_iteration, Shape};
use crate::util::{self, mean, median, percentile, tail_quantile, SplitMix};
use crate::{Args, RunOutput, Workload};

const MIB: u64 = 1 << 20;

/// Arrival rate, jobs per minute.
pub const RATE_PER_MIN: f64 = 30.0;
/// Latency limit behind `serve_slo_met_frac`, seconds from due time.
pub const SLO_S: f64 = 20.0;
/// Per-job memory claims, cycled over the jobs: small claims pack, the
/// 600 MiB claim and the unbudgeted job (charged as the whole cap)
/// serialize against their neighbours.
const CLAIMS: [u64; 6] = [64 * MIB, 256 * MIB, 0, 600 * MIB, 128 * MIB, 32 * MIB];

pub struct ServeSpec {
    /// One job: dataset scale and the rank group it runs on.
    pub job: Shape,
    pub groups: usize,
    pub host_cap: u64,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            job: Shape {
                scale: 0.1,
                ranks: 1,
                threads: 1,
                backend: Backend::InProcess,
                chaining: SeedChaining::Chain,
            },
            groups: 2,
            host_cap: 1024 * MIB,
        }
    }
}

impl ServeSpec {
    fn config(&self) -> ServeConfig {
        ServeConfig {
            groups: self.groups,
            group_ranks: self.job.ranks,
            backend: self.job.backend,
            host_cap: MemBudget::bytes(self.host_cap),
            threads: self.job.threads,
        }
    }
}

pub fn run(w: &Workload, spec: &ServeSpec, args: &Args) -> RunOutput {
    let mut out = RunOutput::default();
    println!(
        "serve: {} group(s) × ({}), {RATE_PER_MIN} jobs/min open loop, {} MiB cap, SLO {SLO_S} s",
        spec.groups,
        spec.job.label(),
        spec.host_cap / MIB
    );

    // Seeded stratified arrivals: the window is cut into `n` equal
    // slots (n = rate × window) and one job is due at a uniform random
    // time in each. The rate is exact and the arrival times are seeded,
    // but unlike Poisson arrivals the jobs never cluster so hard that a
    // single burst decides the run's median latency.
    let mut rng = SplitMix::new(args.seed);
    let n = ((RATE_PER_MIN * args.seconds / 60.0).round() as usize).max(1);
    let slot = args.seconds / n as f64;
    let due: Vec<f64> = (0..n).map(|k| (k as f64 + rng.next_f64()) * slot).collect();
    let job_seed = |i: usize| args.seed.wrapping_mul(1_000_003).wrapping_add(i as u64);

    // Set-up: one job's inputs, parsed through `elba-seq`, and an idle
    // pool brought up with Server::start and down again, the serving
    // twin of the assembly workloads' mesh bring-up.
    let (.., setup_s) = setup(&spec.job, job_seed(0), || {
        Server::start(spec.config()).drain();
    });

    let server = Server::start(spec.config());
    // Warm-up: one untimed job per group, so the window's first jobs do
    // not pay for the process's first heap growth. The claims are small
    // so the warm-ups run side by side.
    let warmups: Vec<_> = (0..spec.groups)
        .map(|g| {
            let job = JobSpec::sim(
                &format!("warmup-{g}"),
                "celegans",
                spec.job.scale,
                job_seed(n + g),
            );
            server.submit(job.budget(CLAIMS[0]))
        })
        .collect();
    for (g, submitted) in warmups.into_iter().enumerate() {
        let ok = submitted.is_ok_and(|id| server.wait(id).completed());
        out.tally.check(ok, &format!("warm-up job {g} completed"));
    }

    let cpu0 = util::cpu_seconds();
    let start = Instant::now();
    let mut submitted = Vec::new();
    let mut late = Vec::new();
    for (i, &at) in due.iter().enumerate() {
        if let Some(wait) = Duration::from_secs_f64(at).checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        late.push(start.elapsed().as_secs_f64() - at);
        let job = JobSpec::sim(&format!("job-{i}"), "celegans", spec.job.scale, job_seed(i))
            .budget(CLAIMS[i % CLAIMS.len()]);
        match server.submit(job) {
            Ok(id) => submitted.push((i, id)),
            Err(e) => {
                out.tally.check(false, &format!("job-{i} refused: {e}"));
            }
        }
    }
    let results: Vec<_> = submitted.iter().map(|&(_, id)| server.wait(id)).collect();
    let cpu = util::cpu_seconds() - cpu0;
    let peak_admitted = server.peak_admitted_bytes();
    server.drain();

    let (mut latencies, mut queued, mut run_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut completeness, mut ng50, mut contigs) = (Vec::new(), Vec::new(), Vec::new());
    let mut mem_hw = Vec::new();
    let mut misassemblies = 0usize;
    let mut last_done = 0.0f64;
    for (&(i, _), result) in submitted.iter().zip(&results) {
        out.tally.attempted += 1;
        let latency = late[i] + result.queued_secs + result.run_secs;
        last_done = last_done.max(due[i] + latency);
        match &result.outcome {
            JobOutcome::Completed {
                report, profile, ..
            } => {
                let Some(report) = report else {
                    out.tally
                        .check(false, &format!("job-{i} has no quality report"));
                    continue;
                };
                out.tally.check(
                    report.n_contigs >= 1,
                    &format!("job-{i} assembled at least one contig"),
                );
                latencies.push(latency);
                mem_hw.push(harness::mem_hw_bytes(profile) as f64);
                queued.push(result.queued_secs);
                run_s.push(result.run_secs);
                completeness.push(report.completeness);
                ng50.push(report.ng50 as f64);
                contigs.push(report.n_contigs as f64);
                misassemblies += report.misassembled_contigs;
            }
            JobOutcome::Failed { error, .. } => {
                out.tally.check(false, &format!("job-{i} failed: {error}"));
            }
        }
    }
    out.tally.check(
        peak_admitted <= spec.host_cap,
        &format!(
            "peak admitted budget {peak_admitted} B within the {} B cap",
            spec.host_cap
        ),
    );
    let done = latencies.len();
    let run_list: Vec<_> = run_s.iter().map(|s| format!("{s:.2}")).collect();
    println!("serve: per-job run s [{}]", run_list.join(" "));
    let tail_q = tail_quantile(done);
    let generator_late = late.iter().copied().fold(0.0, f64::max);
    println!(
        "serve: {done}/{n} jobs completed in {last_done:.2} s · latency p50 {:.3} s, p{:.0} {:.3} s \
         (of {done}) · queue p50 {:.3} s · run p50 {:.3} s · generator late ≤ {generator_late:.4} s \
         · peak admitted {} MiB",
        median(&latencies),
        tail_q * 100.0,
        percentile(&latencies, tail_q),
        median(&queued),
        median(&run_s),
        peak_admitted / MIB
    );
    println!(
        "memory: tracker mem-hw {:.1} MiB per job (mean) vs process VmHWM {:.1} MiB over the run",
        mean(&mem_hw) / MIB as f64,
        util::vm_hwm_bytes() as f64 / MIB as f64
    );

    let e = &mut out.end_to_end;
    e.insert("assemble_s", median(&run_s));
    e.insert("assemble_cpu_s", cpu / done.max(1) as f64);
    e.insert("setup_s", setup_s);
    e.insert("mem_hw_mib", mean(&mem_hw) / MIB as f64);
    e.insert("completeness_pct", mean(&completeness));
    e.insert("serve_jobs_per_min", 60.0 * done as f64 / last_done);
    e.insert("serve_latency_p50_s", median(&latencies));
    e.insert("serve_latency_tail_s", percentile(&latencies, tail_q));
    e.insert(
        "serve_slo_met_frac",
        latencies.iter().filter(|&&l| l <= w.slo_s).count() as f64 / n as f64,
    );

    if args.trace {
        let layers = job_anatomy(spec, job_seed(0), &mut out);
        out.layers = layers;
        let l = &mut out.layers;
        l.insert("serve.queue_s_p50".into(), median(&queued));
        l.insert("serve.run_s_p50".into(), median(&run_s));
        l.insert("serve.peak_admitted_bytes".into(), peak_admitted as f64);
        l.insert("serve.generator_late_s".into(), generator_late);
        l.insert("quality.ng50_bp".into(), mean(&ng50));
        l.insert("quality.contigs".into(), mean(&contigs));
        l.insert("quality.misassemblies".into(), misassemblies as f64);
    }
    out
}

/// Per-layer anatomy of one job-sized assembly (the first job's
/// dataset on the job's rank group, unbudgeted): one untraced and one
/// traced iteration, checked against each other.
fn job_anatomy(spec: &ServeSpec, seed: u64, out: &mut RunOutput) -> BTreeMap<String, f64> {
    let (ds, _genome, reads, _) = setup(&spec.job, seed, || assembly::mesh_bring_up(&spec.job));
    let total_bases = reads.iter().map(|r| r.len()).sum();
    let reads = Arc::new(reads);
    let cfg = Arc::new(spec.job.config(&ds));
    let origin = Instant::now();
    util::reset_peak_rss();
    let plain = run_iteration(&spec.job, &reads, &cfg, None);
    let peak = util::vm_hwm_bytes() as f64;
    let traced = run_iteration(&spec.job, &reads, &cfg, Some((origin, 1)));
    let (Ok(plain), Ok(mut traced)) = (plain, traced) else {
        out.tally.check(false, "job anatomy assemblies ran");
        return BTreeMap::new();
    };
    out.tally.attempted += 2;
    out.tally.check(
        harness::contig_bytes(&plain.contigs) == harness::contig_bytes(&traced.contigs),
        "traced job contigs byte-identical to the untraced ones",
    );
    out.tally.check(
        harness::wire_signature(&plain.profile) == harness::wire_signature(&traced.profile),
        "per-phase profiled wire bytes equal between traced and untraced job runs",
    );
    let layers = traced.layers.take().expect("traced iteration has layers");
    let mut m = harness::layer_metrics(&layers, &traced.profile, &cfg, total_bases);
    let modeled = harness::modeled_peak_bytes(&plain.profile);
    m.insert("trace.assemble_s".into(), traced.wall);
    m.insert("trace.overhead_s".into(), traced.wall - plain.wall);
    m.insert("mem.model_peak_bytes".into(), modeled as f64);
    m.insert("mem.vmhwm_bytes".into(), peak);
    m.insert("mem.model_over_rss".into(), modeled as f64 / peak);
    for l in layers {
        out.spans.extend(l.spans);
    }
    m
}
