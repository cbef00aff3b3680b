//! `oociso` — command-line out-of-core isosurface extraction and rendering.
//!
//! ```text
//! oociso gen        --out rm.vol [--dims 256x256x240] [--step 250] [--seed N]
//! oociso preprocess --volume rm.vol --db rm_db [--nodes 4] [--metacell 9]
//! oociso info       --db rm_db
//! oociso extract    --db rm_db --iso 190 [--obj out.obj] [--topology]
//! oociso render     --db rm_db --iso 190 --out img.ppm [--size 1024] [--tiles 2x2]
//! oociso serve      --db rm_db [--addr 127.0.0.1:7077] [--cache-mb 256] [--port-file p]
//! oociso query      --addr HOST:PORT --iso 190 [--obj out.obj] [--stats]
//! ```
//!
//! The `gen` subcommand writes a Richtmyer–Meshkov proxy time step as a raw
//! volume file; `preprocess` builds the striped on-disk database out-of-core
//! (streaming the file in slabs); `extract`/`render` query it.

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        print!("{}", commands::USAGE);
        return Ok(());
    };
    let opts = args::Options::parse(&argv[1..])?;
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        print!("{}", commands::USAGE);
        return Ok(());
    }
    let Some(&(_, command, known)) = commands::COMMANDS.iter().find(|(name, ..)| name == cmd)
    else {
        return Err(format!("unknown subcommand `{cmd}` (try `oociso help`)"));
    };
    commands::check_options(cmd, &opts, known)?;
    command(&opts)
}
