//! # noc-bench — benchmark harness
//!
//! `repro` regenerates every paper table and figure (`fig01`..`fig22`,
//! `table1`..`table4`, the `ext_*` extensions, the fault layer's two
//! curves among them) from one ordered table of named entries;
//! `explore`, `analytic_smoke` and `serve_replay` drive the other
//! runtime surfaces. Speed is tracked by the repo benchmark
//! (`benchmark/`), not here.
//!
//! Every effort-scaled binary takes `[quick|paper] [NAME…]`: `quick`
//! is seconds and CI-sized, `paper` (the default) is the full
//! reproduction scale.

use noc_eval::Effort;

/// Parse `[quick|paper] [NAME…]` from the process arguments: the
/// effort (default `paper`) and the selected entries of `names`, in
/// command-line order. Anything else — a misspelt effort, a name not
/// in `names`, a stray `--flag` — prints usage with the valid names to
/// stderr and exits 2, so a typo never starts a paper-scale run.
pub fn parse_args(names: &[&'static str]) -> (Effort, Vec<&'static str>) {
    let mut argv = std::env::args();
    let bin = argv.next().unwrap_or_else(|| "noc-bench".into());
    let args: Vec<String> = argv.collect();
    parse(&args, names).unwrap_or_else(|unknown| {
        let bin = bin.rsplit('/').next().unwrap_or(&bin);
        eprintln!("{bin}: unknown argument `{unknown}`");
        if names.is_empty() {
            eprintln!("usage: {bin} [quick|paper]");
        } else {
            eprintln!("usage: {bin} [quick|paper] [NAME…]\nnames: {}", names.join(" "));
        }
        std::process::exit(2)
    })
}

/// [`parse_args`] on an explicit argument list; `Err` carries the first
/// argument that is neither a leading effort nor one of `names`.
fn parse<'a>(
    args: &'a [String],
    names: &[&'static str],
) -> Result<(Effort, Vec<&'static str>), &'a str> {
    let (effort, rest) = match args.first().and_then(|a| Effort::parse(a)) {
        Some(effort) => (effort, &args[1..]),
        None => (Effort::paper(), args),
    };
    let selected = rest.iter().map(|a| names.iter().copied().find(|n| n == a).ok_or(a.as_str()));
    Ok((effort, selected.collect::<Result<_, _>>()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<(u64, Vec<&'static str>), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args, &["fig01", "table1"])
            .map(|(e, names)| (e.batch, names))
            .map_err(str::to_string)
    }

    #[test]
    fn effort_and_names_parse_and_typos_are_errors() {
        let (quick, paper) = (Effort::quick().batch, Effort::paper().batch);
        assert_eq!(run(&[]), Ok((paper, vec![])));
        assert_eq!(run(&["quick"]), Ok((quick, vec![])));
        assert_eq!(run(&["table1"]), Ok((paper, vec!["table1"])));
        assert_eq!(run(&["quick", "table1", "fig01"]), Ok((quick, vec!["table1", "fig01"])));
        // the typo that used to start the full reproduction
        assert_eq!(run(&["qiuck"]), Err("qiuck".into()));
        assert_eq!(run(&["quick", "fig1"]), Err("fig1".into()));
        assert_eq!(run(&["quick", "--only", "fig01"]), Err("--only".into()));
        // the effort is positional: only the first argument may be one
        assert_eq!(run(&["fig01", "quick"]), Err("quick".into()));
    }
}
