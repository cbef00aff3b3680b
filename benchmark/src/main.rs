//! `oociso-benchmark`: four workloads, each in a process of its own, every
//! metric printed by name with its unit, outputs verified. See README.md.
//!
//! ```text
//! run    [--workload W] [--seed S] [--trace] [--quick] [--repeat N]   the full-size set
//! driver --workload W --seed N --seconds T --trace 0|1                one gated run
//! manifest                                                             print BENCHMARK.json
//! ```

mod child;
mod json;
mod layers;
mod pace;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use oociso::volume::{Dims3, RmProxy};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Job, Limit, Workload};

/// The RM proxy's demo time step and the bench-default seed.
const STEP: u32 = 250;
const DEFAULT_SEED: u64 = 0x524D_2006;

/// Dataset size and fixed operation counts of a `run`.
struct Scale {
    name: &'static str,
    dims: (usize, usize, usize),
    setup_reps: usize,
    hot_sweeps: usize,
    slow_sweeps: usize,
    requests_per_client: usize,
    stops: usize,
    /// The shortened replay of a traced run: sweeps, stops, requests per client.
    traced: (usize, usize, usize),
}

const FULL: Scale = Scale {
    name: "full",
    dims: (256, 256, 240),
    // the first repetitions run 20–60 % slow (cold dentries and page cache);
    // with 5 the median still leaned on them and two sets disagreed by 27 %
    setup_reps: 9,
    hot_sweeps: 24,
    slow_sweeps: 12,
    requests_per_client: 4000,
    stops: 16,
    traced: (4, 4, 250),
};

const QUICK: Scale = Scale {
    name: "quick",
    dims: (64, 64, 60),
    setup_reps: 3,
    hot_sweeps: 2,
    slow_sweeps: 2,
    requests_per_client: 50,
    stops: 2,
    traced: (2, 2, 50),
};

/// What the driver's many short runs use: the same workloads on a volume a
/// quarter the size, measured for `--seconds` instead of to a fixed count, so
/// that 92 runs with their set-up fit the driver's time allowance.
const GATED: Scale = Scale {
    name: "gated",
    dims: (160, 160, 150),
    setup_reps: 9,
    hot_sweeps: usize::MAX,
    slow_sweeps: usize::MAX,
    requests_per_client: usize::MAX,
    stops: usize::MAX,
    traced: (4, 4, 250),
};

/// `serve_scrub`'s cache: 64 MiB at full size, scaled with the surface area.
fn scrub_cache_bytes(dims: (usize, usize, usize)) -> u64 {
    (64u64 << 20) * (dims.0 * dims.1) as u64 / (256 * 256)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &args[..]),
    };
    let outcome = match command {
        "run" => run(rest),
        "driver" => driver(rest),
        "child" => child(rest),
        "manifest" => {
            print!("{}", spec::manifest().pretty());
            Ok(true)
        }
        _ => Err("usage: oociso-benchmark run|driver|manifest [options] (see README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("oociso-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

type Outcome = Result<bool, String>;

/// `--name value` pairs and bare `--flag`s.
struct Options<'a>(&'a [String]);

impl Options<'_> {
    fn get(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read `{v}`")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.parsed(name)?
            .ok_or_else(|| format!("{name} is required"))
    }

    /// A seed in decimal or `0x` hexadecimal.
    fn seed(&self) -> Result<Option<u64>, String> {
        self.get("--seed")
            .map(|v| {
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                parsed.map_err(|_| format!("--seed: cannot read `{v}`"))
            })
            .transpose()
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.get("--workload") {
            None => Ok(Workload::ALL.to_vec()),
            Some(name) => Workload::parse(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("--workload: no workload called `{name}`")),
        }
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The volume every child of this invocation reads, made once here: it is
/// the benchmark's input, not the program's set-up.
struct Volume {
    path: PathBuf,
    generate_s: f64,
}

impl Volume {
    fn synthesise(rm_seed: u64, scale: &Scale) -> Result<Volume, String> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("rm-{}.vol", std::process::id()));
        let (nx, ny, nz) = scale.dims;
        let t = Instant::now();
        let volume = RmProxy::with_seed(rm_seed).volume(STEP, Dims3::new(nx, ny, nz));
        let generate_s = t.elapsed().as_secs_f64();
        oociso::volume::io::write_volume(&path, &volume)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("volume.generate_s = {generate_s:.3} s ({nx}x{ny}x{nz} u8, RM proxy step {STEP}, seed {rm_seed:#x})");
        Ok(Volume { path, generate_s })
    }
}

impl Drop for Volume {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What the parent learned from one child's `@` lines.
#[derive(Default)]
struct ChildResult {
    attempted: u64,
    failed: u64,
    correct: bool,
    /// Traced: the layer walk explains its share of the end-to-end operation.
    accounted: bool,
    /// `(gated name, name on this workload, value, unit)`.
    end_to_end: Vec<(String, String, f64, String)>,
    /// `(name, value, unit)`.
    per_layer: Vec<(String, f64, String)>,
    out: Option<PathBuf>,
}

struct Invocation<'a> {
    scale: &'a Scale,
    volume: &'a Volume,
    rm_seed: u64,
    seed: u64,
    /// Measure for this long instead of to the scale's counts.
    seconds: Option<f64>,
}

impl Invocation<'_> {
    /// What every result file of this invocation records about the run.
    fn env(&self) -> Json {
        let (nx, ny, nz) = self.scale.dims;
        Json::obj([
            ("scale", Json::str(self.scale.name)),
            (
                "dims",
                Json::Arr([nx, ny, nz].map(|n| Json::Int(n as i64)).to_vec()),
            ),
            ("step", Json::Int(STEP as i64)),
            ("rm_seed", Json::Int(self.rm_seed as i64)),
            ("seed", Json::Int(self.seed as i64)),
            ("nodes", Json::Int(layers::NODES as i64)),
            ("metacell_k", Json::Int(layers::METACELL_K as i64)),
            ("seconds", self.seconds.map_or(Json::Null, Json::Num)),
            (
                "available_parallelism",
                Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
            ),
            (
                "git_rev",
                Json::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
            ),
            ("rustc", Json::str(command_line("rustc", &["-V"]))),
            ("volume_generate_s", Json::Num(self.volume.generate_s)),
        ])
    }

    /// Run one workload in a child process and wait for it.
    fn child(&self, workload: Workload, traced: bool, env: &str) -> Result<ChildResult, String> {
        let scale = self.scale;
        let (mut sweeps, mut stops, mut requests) = (
            match workload {
                Workload::ExtractSlowDisk => scale.slow_sweeps,
                _ => scale.hot_sweeps,
            },
            scale.stops,
            scale.requests_per_client,
        );
        let mut seconds = self.seconds;
        if traced {
            // two replays (spans off, then on), each a quarter of the time
            (sweeps, stops, requests) = scale.traced;
            seconds = seconds.map(|s| s / 4.0);
        }
        let tag = if traced { ".traced" } else { "" };
        let out = out_dir().join(format!("{}{tag}.json", workload.name()));
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut command = Command::new(exe);
        command.arg("child").args([
            "--workload",
            workload.name(),
            "--seed",
            &self.seed.to_string(),
            "--volume",
            &self.volume.path.display().to_string(),
            "--work",
            &out_dir()
                .join(format!("work-{}-{}", workload.name(), std::process::id()))
                .display()
                .to_string(),
            "--setup-reps",
            &scale.setup_reps.to_string(),
            "--sweeps",
            &sweeps.to_string(),
            "--stops",
            &stops.to_string(),
            "--requests",
            &requests.to_string(),
            "--scrub-cache-bytes",
            &scrub_cache_bytes(scale.dims).to_string(),
            "--generate-s",
            &self.volume.generate_s.to_string(),
            "--out",
            &out.display().to_string(),
            "--trace-out",
            &out_dir()
                .join(format!("trace-{}.json", workload.name()))
                .display()
                .to_string(),
            "--env",
            env,
        ]);
        if let Some(s) = seconds {
            command.args(["--seconds", &s.to_string()]);
        }
        if traced {
            command.arg("--traced");
        }
        let mut process = command
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
        let mut result = ChildResult::default();
        let lines = BufReader::new(process.stdout.take().expect("stdout is piped")).lines();
        for line in lines.map_while(Result::ok) {
            match line.strip_prefix('@') {
                None => println!("{line}"),
                Some(record) => result.absorb(record),
            }
        }
        let status = process
            .wait()
            .map_err(|e| format!("waiting for the child: {e}"))?;
        if result.attempted == 0 {
            return Err(format!(
                "the {} child ended without a result ({status})",
                workload.name()
            ));
        }
        Ok(result)
    }
}

impl ChildResult {
    fn absorb(&mut self, record: &str) {
        let words: Vec<&str> = record.split_whitespace().collect();
        match words[..] {
            ["attempted", n] => self.attempted = n.parse().unwrap_or(0),
            ["failed", n] => self.failed = n.parse().unwrap_or(u64::MAX),
            ["correct", b] => self.correct = b == "true",
            ["accounted", b] => self.accounted = b == "true",
            ["e2e", gated, native, value, unit] => self.end_to_end.push((
                gated.into(),
                native.into(),
                value.parse().unwrap_or(f64::NAN),
                unit.into(),
            )),
            ["layer", name, value, unit] => {
                self.per_layer
                    .push((name.into(), value.parse().unwrap_or(f64::NAN), unit.into()))
            }
            ["out", path] => self.out = Some(path.into()),
            _ => {}
        }
    }
}

/// The internal entry point of a child process.
fn child(rest: &[String]) -> Outcome {
    let o = Options(rest);
    let seconds: Option<f64> = o.parsed("--seconds")?;
    let limit = |name: &str| -> Result<Limit, String> {
        Ok(Limit {
            count: o.required(name)?,
            seconds,
        })
    };
    let args = child::ChildArgs {
        job: Job {
            workload: Workload::parse(&o.required::<String>("--workload")?)
                .ok_or("unknown workload")?,
            seed: o.required("--seed")?,
            volume: o.required("--volume")?,
            work_dir: o.required("--work")?,
            setup_reps: o.required("--setup-reps")?,
            sweeps: limit("--sweeps")?,
            stops: limit("--stops")?,
            requests: limit("--requests")?,
            scrub_cache_bytes: o.required("--scrub-cache-bytes")?,
        },
        traced: o.flag("--traced"),
        out: o.required("--out")?,
        trace_out: o.required("--trace-out")?,
        generate_s: o.required("--generate-s")?,
        env: o.required("--env")?,
    };
    let work_dir = args.job.work_dir.clone();
    let outcome = child::run(&args).map_err(|e| format!("{}: {e}", args.job.workload.name()));
    if outcome.is_err() {
        let _ = std::fs::remove_dir_all(work_dir);
    }
    outcome
}

/// One gated run, as the driver asks for it; the last line of stdout is the
/// result object.
fn driver(rest: &[String]) -> Outcome {
    let o = Options(rest);
    let workload = match o.workloads()?[..] {
        [one] => one,
        _ => return Err("--workload is required".into()),
    };
    let traced = match o.required::<u8>("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    // every seed measures the same volume: the seed drives the requests, so
    // that runs with different seeds do comparable work
    let volume = Volume::synthesise(DEFAULT_SEED, &GATED)?;
    let invocation = Invocation {
        scale: &GATED,
        volume: &volume,
        rm_seed: DEFAULT_SEED,
        seed: o.seed()?.ok_or("--seed is required")?,
        seconds: Some(o.required("--seconds")?),
    };
    let result = invocation.child(workload, traced, &invocation.env().compact())?;
    drop(volume);
    if !result.accounted {
        // a timing verdict on a shared host, not an output of the program:
        // the residual is in the per-layer metrics, `correct` stays about outputs
        eprintln!("note: an accounting check left an unexplained residual (see above)");
    }
    let entry = |name: &String, value: &f64, unit: &String| {
        let fields = [
            ("value", Json::Num(*value)),
            ("unit", Json::str(unit.as_str())),
        ];
        (name.clone(), Json::obj(fields))
    };
    let metrics: Vec<(String, Json)> = match traced {
        false => result
            .end_to_end
            .iter()
            .map(|(gated, _, v, unit)| entry(gated, v, unit))
            .collect(),
        true => result
            .per_layer
            .iter()
            .map(|(name, v, unit)| entry(name, v, unit))
            .collect(),
    };
    let line = Json::obj([
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Int(result.attempted as i64)),
        ("failed", Json::Int(result.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.compact());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    Ok(true)
}

/// The whole set at full size (or `--quick`), `--repeat` times, with the
/// repeats compared against the gated bounds.
fn run(rest: &[String]) -> Outcome {
    let o = Options(rest);
    let scale = if o.flag("--quick") { &QUICK } else { &FULL };
    let seed = o.seed()?.unwrap_or(DEFAULT_SEED);
    // two samples per metric cannot resolve a bound, so the smoke test does
    // not compare repeats unless asked to
    let default_repeat = if o.flag("--quick") { 1 } else { 2 };
    let repeat: usize = o.parsed("--repeat")?.unwrap_or(default_repeat).max(1);
    let workloads = o.workloads()?;
    let with_trace = o.flag("--trace");
    let volume = Volume::synthesise(seed, scale)?;
    let invocation = Invocation {
        scale,
        volume: &volume,
        rm_seed: seed,
        seed,
        seconds: None,
    };
    let env = invocation.env().compact();

    let mut all_correct = true;
    let mut all_accounted = true;
    let mut runs = Vec::new();
    // medians[(workload, gated metric)] = one value per repeat
    let mut medians = std::collections::BTreeMap::<(usize, usize), Vec<f64>>::new();
    for rep in 0..repeat {
        println!("-- run {} of {repeat} --", rep + 1);
        for (w, &workload) in workloads.iter().enumerate() {
            for traced in [false, true] {
                if traced && !with_trace {
                    continue;
                }
                let result = invocation.child(workload, traced, &env)?;
                all_correct &= result.correct;
                all_accounted &= result.accounted;
                for (gated, _, value, _) in &result.end_to_end {
                    let m = spec::END_TO_END
                        .iter()
                        .position(|m| m.name == gated)
                        .expect("a gated name");
                    medians.entry((w, m)).or_default().push(*value);
                }
                let text = result
                    .out
                    .as_ref()
                    .and_then(|p| std::fs::read_to_string(p).ok())
                    .unwrap_or_else(|| "null".into());
                runs.push(Json::obj([
                    ("run", Json::Int(rep as i64 + 1)),
                    ("result", Json::Raw(text)),
                ]));
            }
        }
    }
    drop(volume);

    let mut agreement = Vec::new();
    let mut all_agree = true;
    if repeat > 1 {
        println!("-- agreement of {repeat} runs (worst ÷ best median against the bound) --");
        for ((w, m), values) in &medians {
            let (gated, workload) = (&spec::END_TO_END[*m], workloads[*w]);
            let (native, factor) = spec::native_name(gated.name, workload);
            let (best, worst) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let ratio = worst / best;
            let agree = ratio <= 1.0 + gated.bound;
            all_agree &= agree;
            let shown: Vec<String> = values
                .iter()
                .map(|v| format!("{:.4}", v / factor))
                .collect();
            println!(
                "  {:<18} {:<20} [{}] ratio {:.3} bound {:.2} {}",
                workload.name(),
                native,
                shown.join(", "),
                ratio,
                gated.bound,
                if agree { "agree" } else { "DISAGREE" }
            );
            agreement.push(Json::obj([
                ("workload", Json::str(workload.name())),
                ("metric", Json::str(native)),
                ("gated_as", Json::str(gated.name)),
                (
                    "medians",
                    Json::Arr(values.iter().map(|v| Json::Num(v / factor)).collect()),
                ),
                ("ratio", Json::Num(ratio)),
                ("bound", Json::Num(gated.bound)),
                ("agree", Json::Bool(agree)),
            ]));
        }
    }
    let combined = out_dir().join("BENCH.json");
    let document = Json::obj([
        ("schema", Json::str("oociso-benchmark/1")),
        ("scale", Json::str(scale.name)),
        ("seed", Json::Int(seed as i64)),
        ("repeat", Json::Int(repeat as i64)),
        ("correct", Json::Bool(all_correct)),
        ("accounted", Json::Bool(all_accounted)),
        ("agreement", Json::Arr(agreement)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(&combined, document.pretty())
        .map_err(|e| format!("{}: {e}", combined.display()))?;
    println!("wrote {}", combined.display());
    if !all_correct {
        println!("FAILED: a run was not correct (failed or wrong operations)");
    }
    if !all_accounted {
        println!("FAILED: an accounting check left an unexplained residual");
    }
    if !all_agree {
        println!("FAILED: repeated runs disagree beyond a bound");
    }
    Ok(all_correct && all_accounted && all_agree)
}
