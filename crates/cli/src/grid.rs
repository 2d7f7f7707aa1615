//! [`GridSpec`], the grid `sweep` and `campaign` share, and the
//! flag-value parsers behind [`crate::Command::parse`].

use vsv::{Experiment, PolicySpec, Sweep, SystemConfig};
use vsv_workloads::{spec2k_twins, twin};

/// The grid-defining flags shared by `sweep` and every `campaign`
/// subcommand: the same flags must rebuild the same grid in every
/// shard process and in the merge, or the campaign's header/digest
/// validation rejects the files.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Twin name; `None` spans the whole suite.
    pub twin: Option<String>,
    /// DVS policy for the VSV side of the grid (`None`: `dual-fsm`).
    pub policy: Option<PolicySpec>,
    /// Voltage-ladder depth for the VSV side (`None`: two rails).
    pub ladder: Option<usize>,
    /// Core count for *both* sides of the grid (`None`: the paper's
    /// single core). N > 1 runs N per-core voltage domains over a
    /// shared L2 on each side, so the baseline is contended too.
    pub cores: Option<usize>,
    /// Attach Time-Keeping to both sides.
    pub timekeeping: bool,
    /// Measured instructions.
    pub insts: u64,
    /// Warm-up instructions.
    pub warmup: u64,
    /// Per-read error probability at VDDL (0 disables the model).
    pub error_rate: f64,
    /// Reliability SLO checked against every cell post-run.
    pub slo: Option<vsv::SloSpec>,
    /// Open-loop service-traffic scenario layered over every cell.
    pub traffic: Option<vsv::TrafficSpec>,
}

impl GridSpec {
    /// Builds the baseline-vs-VSV sweep grid these flags describe
    /// (one twin or the whole suite, params-major).
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown twin name.
    pub fn to_sweep(&self) -> Result<Sweep, String> {
        let params = match &self.twin {
            Some(name) => vec![twin(name).ok_or_else(|| unknown_twin(name))?],
            None => spec2k_twins(),
        };
        let e = Experiment {
            warmup_instructions: self.warmup,
            instructions: self.insts,
        };
        let mut vsv_side = match self.policy {
            Some(p) => SystemConfig::with_policy(p),
            None => SystemConfig::vsv_with_fsms(),
        };
        if let Some(depth) = self.ladder {
            vsv_side = vsv_side.with_ladder_depth(depth);
        }
        // The error model and SLO apply to both sides: the baseline
        // never leaves VDDH, where the error probability is exactly
        // zero, so it stays bit-identical while sharing the grid's
        // configuration digesting.
        let reliability = |c: SystemConfig| {
            c.with_error_rate(self.error_rate)
                .with_slo(self.slo)
                .with_traffic(self.traffic)
                .with_cores(self.cores.unwrap_or(1))
        };
        Ok(Sweep::over_grid(
            e,
            &params,
            &[
                reliability(SystemConfig::baseline().with_timekeeping(self.timekeeping)),
                reliability(vsv_side.with_timekeeping(self.timekeeping)),
            ],
        ))
    }
}

/// Parses a numeric flag's value, the next argument: a missing or
/// malformed number is a usage error naming the flag.
pub(crate) fn parse_number<T: std::str::FromStr>(
    flag: &str,
    raw: Option<&String>,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses an `--inject-fault` value: `CELL` or `CELL:KIND` with KIND
/// one of `deadlock` (the default), `panic`, `unrecoverable-read`.
pub(crate) fn parse_fault(raw: &str) -> Result<(usize, vsv::FaultKind), String> {
    let (cell_raw, kind_raw) = match raw.split_once(':') {
        Some((c, k)) => (c, Some(k)),
        None => (raw, None),
    };
    let cell: usize = cell_raw
        .parse()
        .map_err(|e| format!("--inject-fault cell '{cell_raw}': {e}"))?;
    let kind = match kind_raw {
        None | Some("deadlock") => vsv::FaultKind::Deadlock,
        Some("panic") => vsv::FaultKind::Panic,
        Some("unrecoverable-read") => vsv::FaultKind::UnrecoverableRead,
        Some(other) => {
            return Err(format!(
                "--inject-fault kind '{other}': expected deadlock | panic | unrecoverable-read"
            ))
        }
    };
    Ok((cell, kind))
}

/// Parses a `--slo` value, `KEY=VALUE,..` with keys `retry` (ppm),
/// `fill_p99` (ns, added read latency) and `p99`/`p999` (ns,
/// end-to-end request latency — needs `--traffic` to be non-vacuous),
/// each at most once. Unspecified reliability ceilings are unbounded.
pub(crate) fn parse_slo(raw: &str) -> Result<vsv::SloSpec, String> {
    let mut spec = vsv::SloSpec::new(u64::MAX, u64::MAX);
    for_each_key_value("--slo", raw, |key, value| {
        let n = value
            .parse::<u64>()
            .map_err(|e| format!("--slo {key} '{value}': {e}"))?;
        match key {
            "retry" => spec.max_retry_rate_ppm = n,
            "fill_p99" => spec.max_added_latency_p99_ns = n,
            "p99" => spec.max_request_p99_ns = Some(n),
            "p999" => spec.max_request_p999_ns = Some(n),
            other => {
                return Err(format!(
                    "--slo key '{other}': expected retry | fill_p99 | p99 | p999"
                ))
            }
        }
        Ok(())
    })?;
    Ok(spec)
}

/// Hands each pair of a `KEY=VALUE,..` flag value to `apply`, in
/// order; a pair without `=` or a key given twice is a usage error
/// naming `flag`.
fn for_each_key_value<'a>(
    flag: &str,
    raw: &'a str,
    mut apply: impl FnMut(&'a str, &'a str) -> Result<(), String>,
) -> Result<(), String> {
    let mut keys: Vec<&str> = Vec::new();
    for pair in raw.split(',') {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!("{flag} '{pair}': expected KEY=VALUE"));
        };
        if keys.contains(&key) {
            return Err(format!("{flag} key '{key}' given twice"));
        }
        keys.push(key);
        apply(key, value)?;
    }
    Ok(())
}

/// Parses a `--traffic` value: `poisson:rate=R,size=S[,seed=N]` or
/// `mmpp:rate=R,burst=B,on=NS,off=NS,size=S[,seed=N]`. Rates are in
/// requests per microsecond (`rate` is also the MMPP OFF-phase rate,
/// `burst` the ON-phase rate); `size` is committed instructions per
/// request.
pub(crate) fn parse_traffic(raw: &str) -> Result<vsv::TrafficSpec, String> {
    let Some((model, rest)) = raw.split_once(':') else {
        return Err(format!(
            "--traffic '{raw}': expected poisson:rate=R,size=S or \
             mmpp:rate=R,burst=B,on=NS,off=NS,size=S"
        ));
    };
    let mut rate: Option<f64> = None;
    let mut burst: Option<f64> = None;
    let mut on: Option<u64> = None;
    let mut off: Option<u64> = None;
    let mut size: Option<u64> = None;
    let mut seed: Option<u64> = None;
    for_each_key_value("--traffic", rest, |key, value| {
        match key {
            "rate" | "burst" => {
                let f: f64 = value
                    .parse()
                    .map_err(|e| format!("--traffic {key} '{value}': {e}"))?;
                if key == "rate" {
                    rate = Some(f);
                } else {
                    burst = Some(f);
                }
            }
            "on" | "off" | "size" | "seed" => {
                let n: u64 = value
                    .parse()
                    .map_err(|e| format!("--traffic {key} '{value}': {e}"))?;
                match key {
                    "on" => on = Some(n),
                    "off" => off = Some(n),
                    "size" => size = Some(n),
                    _ => seed = Some(n),
                }
            }
            other => {
                return Err(format!(
                    "--traffic key '{other}': expected rate | burst | on | off | size | seed"
                ))
            }
        }
        Ok(())
    })?;
    let need_f = |o: Option<f64>, key: &str| {
        o.ok_or_else(|| format!("--traffic {model}: missing {key}=VALUE"))
    };
    let need_u = |o: Option<u64>, key: &str| {
        o.ok_or_else(|| format!("--traffic {model}: missing {key}=VALUE"))
    };
    let mut spec = match model {
        "poisson" => {
            if burst.is_some() || on.is_some() || off.is_some() {
                return Err("--traffic poisson: burst/on/off only apply to mmpp".to_owned());
            }
            vsv::TrafficSpec::poisson(need_f(rate, "rate")?, need_u(size, "size")?)
        }
        "mmpp" => vsv::TrafficSpec::mmpp(
            need_f(rate, "rate")?,
            need_f(burst, "burst")?,
            need_u(on, "on")?,
            need_u(off, "off")?,
            need_u(size, "size")?,
        ),
        other => {
            return Err(format!(
                "--traffic model '{other}': expected poisson | mmpp"
            ))
        }
    };
    if let Some(s) = seed {
        spec = spec.with_seed(s);
    }
    spec.validate().map_err(|e| format!("--traffic: {e}"))?;
    Ok(spec)
}

/// Parses a `--shard` value: `I` or `I/N` (0-based shard index,
/// total shard count).
pub(crate) fn parse_shard(raw: &str) -> Result<(usize, Option<usize>), String> {
    let parse_part = |part: &str, what: &str| {
        part.parse::<usize>()
            .map_err(|e| format!("--shard {what} '{part}': {e}"))
    };
    match raw.split_once('/') {
        Some((i, n)) => Ok((parse_part(i, "index")?, Some(parse_part(n, "total")?))),
        None => Ok((parse_part(raw, "index")?, None)),
    }
}

/// Parses a `--policy`/`--policies` value; an unknown name is a usage
/// error (exit code 2) that lists the valid spellings.
pub(crate) fn parse_policy(s: impl AsRef<str>) -> Result<PolicySpec, String> {
    let s = s.as_ref();
    PolicySpec::parse(s).ok_or_else(|| {
        let names: Vec<&str> = PolicySpec::ALL.iter().map(|p| p.name()).collect();
        format!("unknown policy '{s}'; valid policies: {}", names.join(", "))
    })
}

/// Parses a `--ladder`/`--ladders` value; depth bounds are checked
/// here so a typo is a usage error (exit code 2) rather than a failed
/// sweep cell.
pub(crate) fn parse_ladder_depth(s: impl AsRef<str>) -> Result<usize, String> {
    let s = s.as_ref();
    let depth: usize = s.parse().map_err(|e| format!("ladder depth '{s}': {e}"))?;
    if depth == 0 || depth > vsv::MAX_LADDER_DEPTH {
        return Err(format!(
            "ladder depth '{s}': expected 1..={}",
            vsv::MAX_LADDER_DEPTH
        ));
    }
    Ok(depth)
}

/// Parses a `--cores` value; count bounds are checked here so a typo
/// is a usage error (exit code 2) rather than a failed sweep cell.
pub(crate) fn parse_cores(s: impl AsRef<str>) -> Result<usize, String> {
    let s = s.as_ref();
    let cores: usize = s.parse().map_err(|e| format!("core count '{s}': {e}"))?;
    if cores == 0 || cores > vsv::MAX_CORES {
        return Err(format!("core count '{s}': expected 1..={}", vsv::MAX_CORES));
    }
    Ok(cores)
}

pub(crate) fn unknown_twin(name: &str) -> String {
    let names: Vec<&str> = spec2k_twins().iter().map(|p| p.name).collect();
    format!("unknown twin '{name}'; known twins: {}", names.join(", "))
}
