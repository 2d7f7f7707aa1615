//! The `vsv-cli` binary. All logic lives in the library so it can be
//! unit-tested; this file is arg collection and exit codes only.
//!
//! Exit codes: 0 = success, 1 = the sweep completed but some cells
//! failed (the partial report was still printed), 2 = usage or I/O
//! error (usage text only when the command line does not parse), 3 =
//! every cell ran but some violated the `--slo`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match vsv_cli::Command::parse(&args)
        .map_err(|msg| format!("{msg}\n\n{}", vsv_cli::USAGE))
        .and_then(vsv_cli::execute_with_exit)
    {
        Ok((out, code)) => {
            print!("{out}");
            std::process::exit(code);
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}
