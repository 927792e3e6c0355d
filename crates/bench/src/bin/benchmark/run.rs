//! `run_cold` and `run_hot`: one `cmm run` / `cmm m3` invocation per
//! op — compile from source, run once, check — in a closed loop with
//! one client.
//!
//! `run_cold` is small programs on every engine, so the compile layers
//! do most of the work; `run_hot` is long-running programs on
//! `vm-fused`, so the step loop and Table 1 dispatch do. Each is the
//! other's "no change" prediction for an optimisation of the layers it
//! does not stress.

use crate::pipeline::{run_input, ENGINES};
use crate::programs::{
    cmm_input, deep_raise_input, fig34_input, long_limits, m3_hand_checked, m3_input, paper_cmm,
    strategies, Input,
};
use crate::trace;
use crate::workload::{closed_run, end_to_end, ledger_lines, Report, Size};
use cmm_difftest::oracle::{Limits, Outcome};
use cmm_difftest::{case_for, Rng};
use cmm_frontend::workloads::{
    no_raise_expected, raise_frequency_expected, NO_RAISE, RAISE_FREQUENCY,
};
use cmm_frontend::Strategy;
use cmm_pool::EngineKind;
use std::time::Instant;

/// `run_cold`'s inputs: `gen_cases` generated C-- cases (those the
/// reference does not cut off for fuel), the four paper C-- programs
/// at small n, and the MiniM3 workloads under all seven strategies. The
/// engine cycles over all five.
fn cold_inputs(seed: u64, size: &Size) -> Vec<(Input, EngineKind)> {
    let mut rng = Rng::new(seed ^ 0xc01d);
    let mut inputs = Vec::new();
    let limits = Limits::default();
    let mut index = 0;
    while inputs.len() < size.gen_cases {
        let case = case_for(seed, index);
        index += 1;
        let input = cmm_input(
            &format!("case{}", index - 1),
            &case.render(),
            vec![case.args.0, case.args.1],
            limits,
        );
        if let crate::programs::Expect::Obs(obs) = &input.expect {
            if obs.outcome == Outcome::Fuel {
                continue;
            }
        }
        inputs.push(input);
    }
    for (name, src) in paper_cmm() {
        let n = 10 + rng.below(30) as u32;
        inputs.push(if name.starts_with("fig34") {
            fig34_input(name, name.ends_with("table"), n)
        } else {
            cmm_input(name, &src, vec![n], long_limits())
        });
    }
    for strategy in strategies() {
        let rf = (20 + rng.below(20) as u32, 2 + rng.below(4) as u32);
        inputs.extend(m3_hand_checked(strategy, rf, 20 + rng.below(20) as u32));
        inputs.push(deep_raise_input(strategy, 5 + rng.below(20) as u32));
    }
    let offset = rng.below(ENGINES.len());
    inputs
        .into_iter()
        .enumerate()
        .map(|(i, input)| (input, ENGINES[(i + offset) % ENGINES.len()]))
        .collect()
}

/// `run_hot`'s inputs, all on `vm-fused`: the six `hot_*` trajectory
/// rows, the paper C-- loops, Figure 2's deep raise under run-time
/// unwinding and §2's no-raise loop under sjlj. The base arguments are
/// graded so that the rows take from about 6 to 13 ms each on a quiet
/// host, most of it execution (the traced split checks it); the seed
/// adds a jitter of up to 2%. Equal rows would put every latency in one
/// tight cluster, and on a host whose speed shifts the median would jump
/// between the fast and the slow cluster instead of following the mix.
fn hot_inputs(seed: u64, size: &Size) -> Vec<(Input, EngineKind)> {
    let mut rng = Rng::new(seed ^ 0x407);
    let mut arg = |base: u32| {
        let n = (base / size.shrink).max(2);
        n + rng.below((n / 50 + 1) as usize) as u32
    };
    let mut inputs = Vec::new();
    for (strategy, rf, nr) in [
        (Strategy::Cps, 11_200, 14_600),
        (Strategy::Cutting, 75_600, 102_800),
        (Strategy::NativeUnwind, 137_200, 199_500),
    ] {
        let n = arg(rf);
        inputs.push(m3_input(
            "hot_raise_frequency",
            RAISE_FREQUENCY,
            strategy,
            vec![n, 10],
            raise_frequency_expected(n, 10),
        ));
        let n = arg(nr);
        inputs.push(m3_input(
            "hot_no_raise",
            NO_RAISE,
            strategy,
            vec![n],
            no_raise_expected(n),
        ));
    }
    for ((name, src), base) in paper_cmm()
        .into_iter()
        .zip([302_400, 309_400, 157_500, 212_800])
    {
        inputs.push(if name.starts_with("fig34") {
            fig34_input(name, name.ends_with("table"), arg(base))
        } else {
            cmm_input(name, &src, vec![arg(base)], long_limits())
        });
    }
    inputs.push(deep_raise_input(Strategy::RuntimeUnwind, arg(20_000)));
    let n = arg(112_000);
    inputs.push(m3_input(
        "sec2_no_raise",
        NO_RAISE,
        Strategy::Sjlj(cmm_vm::arch::PENTIUM_LINUX),
        vec![n],
        no_raise_expected(n),
    ));
    inputs
        .into_iter()
        .map(|i| (i, EngineKind::VmFused))
        .collect()
}

/// `run_cold`.
pub fn cold(seed: u64, size: &Size, traced: bool) -> Report {
    let t = Instant::now();
    let inputs = cold_inputs(seed, size);
    closed(seed, size, traced, t.elapsed().as_secs_f64(), &inputs)
}

/// `run_hot`.
pub fn hot(seed: u64, size: &Size, traced: bool) -> Report {
    let t = Instant::now();
    let inputs = hot_inputs(seed, size);
    closed(seed, size, traced, t.elapsed().as_secs_f64(), &inputs)
}

fn closed(
    seed: u64,
    size: &Size,
    traced: bool,
    prep_s: f64,
    inputs: &[(Input, EngineKind)],
) -> Report {
    let mut rng = Rng::new(seed ^ 0x0bde);
    let name = |(i, e): &(Input, EngineKind)| format!("{} on {}", i.name, e.label());
    let op = |(i, e): &(Input, EngineKind)| run_input(i, *e);
    let mut report = Report::default();
    // Set-up is a warm-up pass over the distinct inputs; there is no
    // long-lived state to construct.
    let (setups, w) = closed_run(inputs, &mut rng, size, traced, &mut report, name, op);
    if traced {
        let rec = trace::disable();
        report.lines = ledger_lines(&rec, &w);
        report.recording = Some(rec);
    } else {
        report.lines = end_to_end(prep_s, &setups, &w);
    }
    report
}
