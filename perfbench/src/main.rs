//! `cmm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes and every metric of the chosen mode by name with its unit,
//! then, as the last line, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Exits 1 when a check failed and 2 on a usage or set-up error.

use std::process::ExitCode;

use cmm_perfbench::plan::Workload;

const USAGE: &str =
    "usage: cmm-perfbench --workload <paper-eval|ctrl-dense> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match cmm_perfbench::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench {} seed={} trace={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("# host: {}", cmm_perfbench::stats::host_fingerprint());
    println!(
        "# model: the simulated machine is unvalidated against hardware; \
         no accuracy error is reported"
    );
    for n in &out.notes {
        println!("# {n}");
    }
    let mut json = Vec::new();
    for m in &out.metrics {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        println!("{} = {value} {}", m.name, m.unit);
        json.push(format!("\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}", m.name, m.unit));
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        json.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
