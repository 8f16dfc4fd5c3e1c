//! Shared helpers for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §5 for the experiment index and
//! EXPERIMENTS.md for recorded results).
//!
//! Every binary accepts an optional size argument (`tiny`, `small`,
//! `medium`, or `paper`) controlling the generated design sizes; the
//! default is `small`, which runs the full matrix in seconds. `paper`
//! approximates the publication's 24 k/80 k gate counts and takes
//! correspondingly longer.
//!
//! The matrix-running binaries (`table1`, `table2`) additionally accept
//! `--jobs N` (worker threads; `0` = one per CPU, default 1 — output
//! tables are bit-identical for any N, see `vpga_flow::Executor`) and
//! `--stats` (print the per-stage instrumentation for all 16 runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vpga_designs::DesignParams;

/// Parsed common benchmark-binary arguments.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Generated design sizes (first free argument; default `small`).
    pub params: DesignParams,
    /// Flow-executor worker count (`--jobs N`; `0` = one per CPU).
    pub jobs: usize,
    /// Print per-stage instrumentation (`--stats`).
    pub stats: bool,
}

/// Parses `[size] [--jobs N] [--stats]` from the command line; exits with
/// a usage message on bad input.
pub fn bench_args() -> BenchArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut parsed = BenchArgs {
        params: params_by_name("small").expect("known size"),
        jobs: 1,
        stats: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" => parsed.stats = true,
            "--jobs" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| usage("--jobs needs a value"));
                parsed.jobs = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad --jobs value {v:?}")));
            }
            size => {
                parsed.params = params_by_name(size)
                    .unwrap_or_else(|| usage(&format!("unknown size {size:?}")));
            }
        }
        i += 1;
    }
    parsed
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}\nusage: [tiny|small|medium|paper] [--jobs N] [--stats]");
    std::process::exit(2);
}

/// Parses the size argument from the command line (first free argument),
/// defaulting to `small`.
pub fn params_from_args() -> DesignParams {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "small".into());
    params_by_name(&arg).unwrap_or_else(|| {
        eprintln!("unknown size {arg:?}; expected tiny|small|medium|paper");
        std::process::exit(2);
    })
}

/// Looks up a named size (see [`DesignParams::by_name`]).
pub fn params_by_name(name: &str) -> Option<DesignParams> {
    DesignParams::by_name(name)
}

/// Prints a standard experiment header.
pub fn banner(experiment: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{experiment}");
    println!("paper reference: {paper_ref}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_resolve() {
        assert!(params_by_name("tiny").is_some());
        assert!(params_by_name("small").is_some());
        assert!(params_by_name("medium").is_some());
        assert!(params_by_name("paper").is_some());
        assert!(params_by_name("bogus").is_none());
    }

    #[test]
    fn medium_sits_between_small_and_paper() {
        let s = params_by_name("small").unwrap();
        let m = params_by_name("medium").unwrap();
        let p = params_by_name("paper").unwrap();
        assert!(s.switch_ports <= m.switch_ports && m.switch_ports <= p.switch_ports);
        assert!(s.fpu_mantissa <= m.fpu_mantissa && m.fpu_mantissa <= p.fpu_mantissa);
    }
}
