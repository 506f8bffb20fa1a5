//! `perfbench --workload figures|archive|analyze|serve --seed N
//! --seconds S --trace 0|1`
//!
//! Prints the run log, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 2 on bad
//! arguments and 1 when the run cannot measure; then it prints no
//! result line.

use std::process::ExitCode;

fn main() -> ExitCode {
    // Ops catch the panics some inputs provoke in the program and count
    // them as failed; one line each on stderr is enough.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: {info}")));
    let args = match charm_perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload figures|archive|analyze|serve --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let report = match charm_perfbench::run(&args, charm_perfbench::Size::Full) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (line, record) = match (report.render(), report.record()) {
        (Ok(line), Ok(record)) => (line, record),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let path = charm_perfbench::out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("perfbench: write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "host: cores={} store_fs={} profile={} seed={}",
        report.host.cores, report.host.store_fs, report.host.profile, report.host.seed
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    println!("record: {}", path.display());
    println!("{line}");
    ExitCode::SUCCESS
}
