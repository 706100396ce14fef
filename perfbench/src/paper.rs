//! `paper_tables`: the paper reproduction people run (`run_all`),
//! resized to Table 2 at 2000 bodies and Figure 3 at 4000 bodies for 10
//! steps so that a run holds several repetitions. Tables 1, 3 (class S),
//! 4 and 5–7 run at their `run_all` sizes.
//!
//! The regenerators carry the paper's fixed seeds, so this workload's
//! inputs do not depend on `--seed`, and every run is checked against
//! the reference values.

use mb_crusoe::cms::{Cms, CmsConfig};
use mb_crusoe::kernels::{build_microkernel, MicrokernelProgram, MicrokernelVariant};
use mb_metrics::tco::CostConstants;
use mb_microkernel::MicrokernelInput;
use mb_npb::Class;

use crate::checks::{fingerprint, Checks};
use crate::tracer::{RepTrace, Tracer};
use crate::{traced, Layers, Rep, Workload};

pub const NAME: &str = "paper_tables";
const TABLE2_BODIES: usize = 2_000;
const FIG3_BODIES: usize = 4_000;
const FIG3_STEPS: usize = 10;
const FIG3_PX: usize = 64;
/// Table 1's microkernel batch geometry (see `mb_core::experiments`).
const T1_SOURCES: usize = 64;
const T1_SWEEPS: usize = 24;

const TABLE1: &str = "experiments::table1";
const TABLE2: &str = "experiments::table2";
const TABLE3: &str = "experiments::table3";
const TABLE4: &str = "experiments::table4";
const TABLES567: &str = "tables5-7";
const FIGURE3: &str = "experiments::figure3";

pub struct PaperTables;

pub struct Input {
    karp: MicrokernelProgram,
    karp_input: MicrokernelInput,
}

pub struct Output {
    t1: Vec<mb_core::experiments::Table1Row>,
    t2: Vec<mb_core::experiments::Table2Row>,
    t3: Vec<mb_core::experiments::Table3Row>,
    t4_gflops: Vec<f64>,
    t567: String,
    fig3: Vec<u8>,
    /// Rendered text, kept so the renderers run inside the timed body.
    rendered_len: usize,
}

impl Workload for PaperTables {
    type Input = Input;
    type Output = Output;

    fn name(&self) -> &'static str {
        NAME
    }

    /// The Table 1 Karp microkernel and its input: the program the
    /// traced run's CMS counts come from.
    fn setup(&self, _tracer: Option<&Tracer>) -> Input {
        Input {
            karp: build_microkernel(MicrokernelVariant::KarpSqrt, T1_SOURCES, T1_SWEEPS),
            karp_input: MicrokernelInput::generate(T1_SOURCES),
        }
    }

    fn body(&self, _input: &Input, t: Option<&Tracer>) -> Output {
        use mb_core::{experiments as ex, report};
        let t1 = traced(t, TABLE1, ex::table1);
        let t2 = traced(t, TABLE2, || ex::table2(TABLE2_BODIES));
        let t3 = traced(t, TABLE3, || ex::table3(Class::S));
        let t4 = traced(t, TABLE4, ex::table4);
        let t567 = traced(t, TABLES567, || {
            let machines = ex::table67_machines();
            [
                mb_metrics::report::render_table5(&CostConstants::default()),
                mb_metrics::report::render_table6(&machines),
                mb_metrics::report::render_table7(&machines),
            ]
            .concat()
        });
        let fig3 = traced(t, FIGURE3, || ex::figure3(FIG3_BODIES, FIG3_STEPS, FIG3_PX));
        let rendered_len = report::render_table1(&t1).len()
            + report::render_table2(&t2).len()
            + report::render_table3(&t3, Class::S).len()
            + report::render_table4(&t4).len()
            + fig3.to_ascii().len();
        Output {
            t4_gflops: t4.iter().map(|r| r.gflops).collect(),
            t1,
            t2,
            t3,
            t567,
            fig3: fig3.to_gray(),
            rendered_len,
        }
    }

    fn review(
        &self,
        input: Input,
        out: Output,
        trace: Option<&RepTrace>,
        checks: &mut Checks,
    ) -> Rep {
        checks.check(out.t1.len() == 5, || {
            format!("table1 has {} rows", out.t1.len())
        });
        for r in &out.t1 {
            checks.check(r.karp_mflops > r.math_mflops, || {
                format!(
                    "table1 {}: Karp {} Mflops does not beat libm sqrt {}",
                    r.cpu, r.karp_mflops, r.math_mflops
                )
            });
        }
        let verified = out.t3.iter().filter(|r| r.verified).count();
        for r in &out.t3 {
            checks.check(r.verified, || {
                format!("NPB {} failed self-verification", r.code)
            });
        }
        checks.check(out.rendered_len > 0, || "tables rendered empty".into());

        let t1 = fingerprint(
            "table1",
            out.t1.iter().flat_map(|r| [r.math_mflops, r.karp_mflops]),
        );
        let t2 = fingerprint("table2", out.t2.iter().flat_map(|r| [r.time_s, r.speedup]));
        let t3 = fingerprint("table3", out.t3.iter().flat_map(|r| r.mops));
        let t4 = fingerprint("table4", out.t4_gflops.iter().copied());
        let t567 = fingerprint("tables5-7", out.t567.bytes().map(f64::from));
        let f3 = fingerprint("figure3", out.fig3.iter().map(|&g| f64::from(g)));
        for (key, fp) in [
            ("table1", &t1),
            ("table2", &t2),
            ("table3", &t3),
            ("table4", &t4),
            ("tables567", &t567),
            ("figure3", &f3),
        ] {
            checks.reference(NAME, key, fp);
        }

        let mut layers = Layers::new();
        if let Some(tr) = trace {
            layers.push(("crusoe.table1_s", tr.span_s(TABLE1)));
            layers.push(("npb.table3_s", tr.span_s(TABLE3)));
            layers.push(("npb.verified", verified as f64));
            layers.push(("treecode.table2_s", tr.span_s(TABLE2)));
            layers.push(("treecode.figure3_s", tr.span_s(FIGURE3)));
            layers.push(("metrics.tables567_s", tr.span_s(TABLES567)));
            // One cold CMS run of the Karp microkernel: how much of it
            // the translator covered.
            let mut cms = Cms::new(CmsConfig::metablade());
            let mut state = input.karp.setup_state(&input.karp_input);
            let stats = cms.run(&input.karp.program, &mut state);
            checks.check(stats.is_ok(), || {
                "CMS run of the Karp microkernel faulted".into()
            });
            if let Ok(s) = stats {
                layers.push(("crusoe.interp_insns", s.interp_insns as f64));
                layers.push(("crusoe.translated_insns", s.translated_insns as f64));
                layers.push(("crusoe.translations", s.translations as f64));
            }
        }
        Rep {
            // Artifacts regenerated: Tables 1-7 and Figure 3.
            items: 8.0,
            fingerprint: fingerprint(
                "paper_tables",
                [t1, t2, t3, t4, t567, f3]
                    .iter()
                    .flat_map(|s| s.bytes().map(f64::from)),
            ),
            layers,
        }
    }
}
