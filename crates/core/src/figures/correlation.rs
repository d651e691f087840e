//! Correlation figures: Fig 5 (open-loop vs batch, router params),
//! Fig 8 (topologies, worst-case), Fig 14/15 (execution-driven vs plain
//! batch), Fig 18/19 (extended batch models), Fig 22 (OS modeling).

use cmp_sim::{run_cmp, CmpConfig};
use noc_closedloop::run_batch;
use noc_sim::config::NetConfig;
use noc_traffic::PatternKind;
use noc_workloads::{all_benchmarks, BenchmarkProfile, ClockFreq};

use crate::bridge::{batch_for_profile, table2_net, BatchExtension};
use crate::correlate::{
    correlate_cmp_batch, correlate_open_batch, CmpBatchOutcome, OpenBatchOutcome,
};
use crate::effort::Effort;

/// The router-delay sweep of the validation experiments.
pub const TRS: [u32; 4] = [1, 2, 4, 8];

/// The MSHR count the batch model uses when standing in for the 16-core
/// CMP (in-order cores with a small store buffer).
pub const CMP_M: usize = 4;

/// Fig 5: correlation of open-loop latency and batch runtime across
/// router delay (a) and buffer size (b) variants.
#[derive(Debug, Clone)]
pub struct Fig05 {
    /// (a) router-delay scatter + correlations.
    pub router_delay: OpenBatchOutcome,
    /// (b) buffer-size scatter + correlations.
    pub buffer_size: OpenBatchOutcome,
    /// (b') throughput agreement for the buffer panel:
    /// `(variant, batch theta at m=32, open-loop saturation bracket mid)`.
    /// Buffer depth is a *throughput* parameter (Fig 3b/4b); in our
    /// lean-pipeline router its latency effect is confined to the
    /// saturation region, which makes the paper's latency-feedback
    /// scatter sign-unstable for q — the two methodologies' agreement
    /// shows up directly in throughput instead (see EXPERIMENTS.md).
    pub buffer_theta: Vec<(String, f64, f64)>,
    /// Pearson correlation of the two throughput columns.
    pub r_theta: Option<f64>,
}

/// Run Fig 5.
pub fn fig05(effort: &Effort) -> Fig05 {
    let ms = [1usize, 2, 4, 8, 16, 32];
    let tr_variants: Vec<(String, NetConfig)> = [1u32, 2, 4]
        .iter()
        .map(|&tr| (format!("tr={tr}"), NetConfig::baseline().with_router_delay(tr)))
        .collect();
    let q_variants: Vec<(String, NetConfig)> = [32usize, 16, 8, 4]
        .iter()
        .map(|&q| (format!("q={q}"), NetConfig::baseline().with_vc_buf(q)))
        .collect();
    let excluded = [16usize, 32];
    let buffer_size =
        correlate_open_batch(&q_variants, &ms, PatternKind::Uniform, effort, false, &excluded)
            .expect("valid configs");

    // throughput agreement: batch theta at the largest m vs open-loop
    // saturation, per buffer variant
    let mut buffer_theta = Vec::new();
    for (label, net) in &q_variants {
        let batch_theta = buffer_size
            .points
            .iter()
            .filter(|p| &p.variant == label && p.m == 32)
            .map(|p| p.theta)
            .next()
            .unwrap_or(f64::NAN);
        // capacity estimator: accepted throughput under deliberate
        // overload — sharper than bisection (no tolerance granularity)
        let ocfg = noc_openloop::OpenLoopConfig {
            net: net.clone(),
            pattern: PatternKind::Uniform,
            load: 0.6,
            warmup: effort.warmup,
            measure: effort.measure,
            drain_max: 0, // no need to drain marked packets for throughput
            ..noc_openloop::OpenLoopConfig::default()
        };
        let open = noc_openloop::measure(&ocfg).expect("valid config");
        buffer_theta.push((label.clone(), batch_theta, open.throughput));
    }
    let r_theta = noc_stats::pearson(
        &buffer_theta.iter().map(|r| r.1).collect::<Vec<_>>(),
        &buffer_theta.iter().map(|r| r.2).collect::<Vec<_>>(),
    );

    Fig05 {
        router_delay: correlate_open_batch(
            &tr_variants,
            &ms,
            PatternKind::Uniform,
            effort,
            false,
            &excluded,
        )
        .expect("valid configs"),
        buffer_size,
        buffer_theta,
        r_theta,
    }
}

impl Fig05 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig 5: open-loop vs batch correlation ==\n");
        for (title, o) in
            [("(a) router delay", &self.router_delay), ("(b) buffer size", &self.buffer_size)]
        {
            out.push_str(&format!("-- {title} --\nm      variant   T_norm     L_norm     theta\n"));
            for p in &o.points {
                out.push_str(&format!(
                    "{:<6} {:<9} {:<10.3} {:<10.3} {:.4}\n",
                    p.m, p.variant, p.norm_runtime, p.norm_latency, p.theta
                ));
            }
            out.push_str(&format!(
                "r (all) = {:.4}   r (excluding m=16,32) = {:.4}\n",
                o.r_all.unwrap_or(f64::NAN),
                o.r_filtered.unwrap_or(f64::NAN)
            ));
        }
        out.push_str("-- (b') buffer panel throughput agreement --\n");
        out.push_str("variant   batch theta(m=32)  open-loop saturation\n");
        for (label, bt, os) in &self.buffer_theta {
            out.push_str(&format!("{label:<9} {bt:<18.4} {os:.4}\n"));
        }
        out.push_str(&format!("r (theta) = {:.4}\n", self.r_theta.unwrap_or(f64::NAN)));
        out
    }
}

/// Fig 8: topology comparison correlated via *worst-case* open-loop
/// latency (the paper's key methodological point: batch runtime is a
/// worst-case statistic).
#[derive(Debug, Clone)]
pub struct Fig08 {
    /// Scatter with worst-node open-loop latency.
    pub worst_case: OpenBatchOutcome,
    /// Same scatter using average latency, for contrast.
    pub average: OpenBatchOutcome,
}

/// Run Fig 8.
pub fn fig08(effort: &Effort) -> Fig08 {
    let ms = [1usize, 2, 4, 8];
    let topos = super::openloop::fig06_topologies();
    Fig08 {
        worst_case: correlate_open_batch(&topos, &ms, PatternKind::Uniform, effort, true, &[])
            .expect("valid configs"),
        average: correlate_open_batch(&topos, &ms, PatternKind::Uniform, effort, false, &[])
            .expect("valid configs"),
    }
}

impl Fig08 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "== Fig 8: topology correlation (batch vs open-loop) ==\n\
             m      topo    T_norm     Lworst_norm  theta      Lworst(abs)\n",
        );
        for p in &self.worst_case.points {
            out.push_str(&format!(
                "{:<6} {:<7} {:<10.3} {:<12.3} {:<10.4} {:<8.1} {}\n",
                p.m,
                p.variant,
                p.norm_runtime,
                p.norm_latency,
                p.theta,
                p.latency,
                if p.stable { "" } else { "(saturated)" }
            ));
        }
        out.push_str(&format!(
            "worst-case latency: r = {:.4} (all), {:.4} (below-saturation points)\n\
             average latency:    r = {:.4} (all), {:.4} (below-saturation points)\n\
             (the paper reports r = 0.999 using worst-case; its footnote 3 notes\n\
              saturated points have no meaningful latency, as our flags show)\n",
            self.worst_case.r_all.unwrap_or(f64::NAN),
            self.worst_case.r_filtered.unwrap_or(f64::NAN),
            self.average.r_all.unwrap_or(f64::NAN),
            self.average.r_filtered.unwrap_or(f64::NAN),
        ));
        out
    }
}

/// Make the execution-driven configuration used by the validation
/// figures (Table II network, no OS model unless stated).
pub fn validation_cmp(profile: &BenchmarkProfile, effort: &Effort, os: bool) -> CmpConfig {
    CmpConfig::table2(*profile).with_instructions(effort.instructions).with_os(os)
}

/// Fig 14: normalized runtime of each benchmark (execution-driven) and
/// the plain batch model, as router delay varies.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// `(benchmark, tr, normalized runtime)` rows; the final group
    /// labeled `"BA"` is the plain batch model.
    pub rows: Vec<(String, u32, f64)>,
}

/// Run Fig 14.
pub fn fig14(effort: &Effort) -> Fig14 {
    let mut rows = Vec::new();
    for p in all_benchmarks() {
        let mut base = None;
        for &tr in &TRS {
            let cfg = validation_cmp(&p, effort, false).with_router_delay(tr);
            let r = run_cmp(&cfg).expect("valid config");
            let b = *base.get_or_insert(r.runtime as f64);
            rows.push((p.name.to_string(), tr, r.runtime as f64 / b));
        }
    }
    let mut base = None;
    for &tr in &TRS {
        let cfg = batch_for_profile(
            table2_net(tr),
            &all_benchmarks()[0],
            BatchExtension::plain(),
            effort.batch,
            CMP_M,
        );
        let r = run_batch(&cfg).expect("valid config");
        let b = *base.get_or_insert(r.runtime as f64);
        rows.push(("BA".to_string(), tr, r.runtime as f64 / b));
    }
    Fig14 { rows }
}

impl Fig14 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "== Fig 14: normalized runtime vs router delay (exec-driven + BA) ==\n\
             benchmark      tr   T_norm\n",
        );
        for (name, tr, t) in &self.rows {
            out.push_str(&format!("{name:<14} {tr:<4} {t:.3}\n"));
        }
        out
    }

    /// Normalized runtime of `who` at `tr`.
    pub fn at(&self, who: &str, tr: u32) -> Option<f64> {
        self.rows.iter().find(|(n, t, _)| n == who && *t == tr).map(|&(_, _, v)| v)
    }
}

/// Fig 15: correlation of the plain batch model with execution-driven
/// runs (the paper reports a poor r = 0.829).
pub fn fig15(effort: &Effort) -> CmpBatchOutcome {
    correlate_cmp_batch(
        &all_benchmarks(),
        |p| validation_cmp(p, effort, false),
        &TRS,
        BatchExtension::plain(),
        effort,
        CMP_M,
    )
    .expect("valid configs")
}

/// Fig 18/19: the extended batch models (BA_inj, BA_re, BA_inj+re)
/// against execution-driven runs.
#[derive(Debug, Clone)]
pub struct Fig19 {
    /// One outcome per extension, in [BA, BA_inj, BA_re, BA_inj+re] order.
    pub outcomes: Vec<CmpBatchOutcome>,
}

/// Run Fig 18/19.
pub fn fig19(effort: &Effort) -> Fig19 {
    let sweep = crate::correlate::run_cmp_sweep(
        &all_benchmarks(),
        |p| validation_cmp(p, effort, false),
        &TRS,
    )
    .expect("valid configs");
    let outcomes = [
        BatchExtension::plain(),
        BatchExtension::inj(),
        BatchExtension::re(),
        BatchExtension::inj_re(),
    ]
    .into_iter()
    .map(|ext| {
        crate::correlate::correlate_sweep_batch(&sweep, &all_benchmarks(), ext, effort, CMP_M)
            .expect("valid configs")
    })
    .collect();
    Fig19 { outcomes }
}

impl Fig19 {
    /// Text report (covers both Fig 18's runtimes and Fig 19's scatter).
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig 18/19: extended batch models vs exec-driven ==\n");
        for o in &self.outcomes {
            out.push_str(&format!("-- {} (r = {:.4}) --\n", o.label, o.r.unwrap_or(f64::NAN)));
            out.push_str("benchmark      tr   exec_norm  batch_norm\n");
            for p in &o.points {
                out.push_str(&format!(
                    "{:<14} {:<4} {:<10.3} {:.3}\n",
                    p.benchmark, p.tr, p.cmp_norm, p.batch_norm
                ));
            }
        }
        out
    }

    /// The correlation of each variant, labeled.
    pub fn correlations(&self) -> Vec<(String, f64)> {
        self.outcomes.iter().map(|o| (o.label.clone(), o.r.unwrap_or(f64::NAN))).collect()
    }
}

/// Fig 22: correlation with and without the OS (kernel traffic) model,
/// at 75 MHz and 3 GHz.
#[derive(Debug, Clone)]
pub struct Fig22 {
    /// `(clock label, without OS r, with OS r)` rows.
    pub rows: Vec<(String, f64, f64)>,
    /// Full outcomes for inspection: (clock, without, with).
    pub outcomes: Vec<(String, CmpBatchOutcome, CmpBatchOutcome)>,
}

/// Run Fig 22.
pub fn fig22(effort: &Effort) -> Fig22 {
    let mut rows = Vec::new();
    let mut outcomes = Vec::new();
    for clock in [ClockFreq::MHz75, ClockFreq::GHz3] {
        // execution-driven reference *includes* OS activity at `clock`;
        // run it once and correlate both batch variants against it
        let make_cmp = |p: &BenchmarkProfile| validation_cmp(p, effort, true).with_clock(clock);
        let sweep = crate::correlate::run_cmp_sweep(&all_benchmarks(), make_cmp, &TRS)
            .expect("valid configs");
        let without = crate::correlate::correlate_sweep_batch(
            &sweep,
            &all_benchmarks(),
            BatchExtension::inj_re(),
            effort,
            CMP_M,
        )
        .expect("valid configs");
        let with = crate::correlate::correlate_sweep_batch(
            &sweep,
            &all_benchmarks(),
            BatchExtension::full(clock),
            effort,
            CMP_M,
        )
        .expect("valid configs");
        rows.push((
            clock.label().to_string(),
            without.r.unwrap_or(f64::NAN),
            with.r.unwrap_or(f64::NAN),
        ));
        outcomes.push((clock.label().to_string(), without, with));
    }
    Fig22 { rows, outcomes }
}

impl Fig22 {
    /// Text report.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "== Fig 22: correlation with/without OS modeling ==\n\
             clock     r(without OS)  r(with OS)\n",
        );
        for (clock, without, with) in &self.rows {
            out.push_str(&format!("{clock:<9} {without:<14.4} {with:.4}\n"));
        }
        out.push_str("(paper: 75 MHz 0.705 -> 0.931; 3 GHz 0.954 -> 0.972)\n");
        out
    }
}
