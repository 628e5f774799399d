//! The optimization driver: strategies, configuration, the evaluation
//! contract and the `optimize.json` report.
//!
//! The driver never executes a flow itself. It turns candidates into
//! [`Job`]s and hands each generation to an *evaluation function* with
//! the same shape as a jobs-engine batch call — so the exact same code
//! path runs against a local [`tdsigma_jobs::Engine`], a `--workers`
//! fleet dispatcher, a warm cache or a synthetic closure in a unit test.
//! Because candidates, die seeds and generation order are pure functions
//! of [`OptConfig`], and the engine guarantees a [`JobReport`] is a pure
//! function of its [`Job`], the whole run is deterministic: two runs
//! with the same config produce byte-identical reports, and a run
//! re-executed after a crash replays through the result cache to the
//! identical artifact.

use crate::cma::CmaState;
use crate::space::{Candidate, SearchSpace};
use tdsigma_jobs::{Job, JobError, JobKind, JobReport, Json};
use tdsigma_tech::Rng64;

/// Fitness assigned to evaluations that produced no usable report
/// (failed jobs, infeasible specs, missing FOM).
pub const FITNESS_FAILED: f64 = 1e18;
/// Base fitness for feasible-but-below-SNDR-floor full-flow designs;
/// the shortfall is added on top so the penalty region stays graded.
pub const FITNESS_FLOOR_PENALTY: f64 = 1e9;

/// Which search strategy drives the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// CMA-ES-like evolution strategy at full fidelity (see [`CmaState`]).
    Cma,
    /// Successive-halving racing: a large random population raced
    /// through rising-fidelity rungs (FFT capture length), halving the
    /// field at each rung.
    Halving,
}

impl Strategy {
    /// Stable CLI / JSON name.
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::Cma => "cma",
            Strategy::Halving => "halving",
        }
    }

    /// Parses a CLI / JSON name.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "cma" => Ok(Strategy::Cma),
            "halving" => Ok(Strategy::Halving),
            other => Err(format!(
                "unknown strategy {other:?} (expected \"cma\" or \"halving\")"
            )),
        }
    }
}

/// Everything that determines an optimization run. Two runs with equal
/// configs produce byte-identical [`OptReport`]s — this struct *is* the
/// resume token (`<journal-dir>/<run-id>.opt.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct OptConfig {
    /// The searchable region.
    pub space: SearchSpace,
    /// Search strategy.
    pub strategy: Strategy,
    /// Evaluate candidates as fast sim jobs or full Fig.-9 flows.
    pub kind: JobKind,
    /// Evaluation budget: the maximum number of jobs submitted
    /// (cache hits count — the budget bounds determinism, not cost).
    pub budget: usize,
    /// Master seed: drives candidate sampling and the per-die RNG seed.
    pub seed: u64,
    /// Full-flow designs below this SNDR are penalized, not ranked by
    /// FOM (ignored for sim-kind runs, which maximize SNDR directly).
    pub sndr_floor_db: f64,
    /// Full-fidelity FFT capture length (halving rungs race at 1/4 and
    /// 1/2 of this).
    pub samples: usize,
    /// CMA population size λ; 0 → 8. (Halving sizes its field from the
    /// budget instead.)
    pub population: usize,
}

impl OptConfig {
    /// A full-flow search over the given space with paper-shaped
    /// defaults: CMA, budget 32, seed 2017, 70 dB floor, 16384 samples.
    pub fn flow(space: SearchSpace) -> Self {
        OptConfig {
            space,
            strategy: Strategy::Cma,
            kind: JobKind::FullFlow,
            budget: 32,
            seed: 2017,
            sndr_floor_db: 70.0,
            samples: 16_384,
            population: 0,
        }
    }

    /// Validates budget / fidelity / population sanity.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason.
    pub fn validated(self) -> Result<Self, String> {
        let _ = self.space.clone().validated()?;
        if self.budget == 0 {
            return Err("budget must be at least 1 evaluation".into());
        }
        // 2048 is the floor at which the paper operating points still
        // leave enough in-band FFT bins for an SNDR measurement.
        if self.samples < 2048 || !self.samples.is_power_of_two() {
            return Err(format!(
                "samples must be a power of two ≥ 2048, got {}",
                self.samples
            ));
        }
        if self.population > self.budget {
            return Err(format!(
                "population {} exceeds budget {}",
                self.population, self.budget
            ));
        }
        Ok(self)
    }

    /// The CMA population size in effect.
    pub fn lambda(&self) -> usize {
        let l = if self.population == 0 {
            8
        } else {
            self.population
        };
        l.min(self.budget).max(1)
    }

    /// This config as a canonical JSON object (the resume-file format).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("strategy".into(), Json::Str(self.strategy.as_str().into())),
            ("kind".into(), Json::Str(self.kind.as_str().into())),
            ("budget".into(), Json::Num(self.budget as f64)),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("sndr_floor_db".into(), Json::Num(self.sndr_floor_db)),
            ("samples".into(), Json::Num(self.samples as f64)),
            ("population".into(), Json::Num(self.population as f64)),
            ("space".into(), self.space.to_json()),
        ])
    }

    /// Parses the form written by [`OptConfig::to_json`] and validates.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on missing/mistyped fields or
    /// invalid values.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let missing = |k: &str| format!("optimize config field {k:?} missing or mistyped");
        let num = |k: &str| v.get(k).and_then(Json::as_f64).ok_or_else(|| missing(k));
        let int = |k: &str| v.get(k).and_then(Json::as_u64).ok_or_else(|| missing(k));
        OptConfig {
            strategy: Strategy::parse(
                v.get("strategy")
                    .and_then(Json::as_str)
                    .ok_or_else(|| missing("strategy"))?,
            )?,
            kind: JobKind::parse(
                v.get("kind")
                    .and_then(Json::as_str)
                    .ok_or_else(|| missing("kind"))?,
            )
            .map_err(|e| e.to_string())?,
            budget: int("budget")? as usize,
            seed: int("seed")?,
            sndr_floor_db: num("sndr_floor_db")?,
            samples: int("samples")? as usize,
            population: int("population")? as usize,
            space: SearchSpace::from_json(v.get("space").ok_or_else(|| missing("space"))?)?,
        }
        .validated()
    }
}

/// An optimization failure.
#[derive(Debug)]
pub enum OptError {
    /// The configuration was rejected.
    Config(String),
    /// The evaluation function failed a whole batch (e.g. a journal
    /// write error) — individual job failures are scored, not fatal.
    Eval(JobError),
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::Config(m) => write!(f, "optimize config: {m}"),
            OptError::Eval(e) => write!(f, "optimize evaluation: {e}"),
        }
    }
}

impl std::error::Error for OptError {}

/// The evaluation contract: a batch of jobs in, one result per job out,
/// in submission order, as [`tdsigma_jobs::Engine::run_batch`] returns
/// them. The outer `Err` (say, a journal write that failed) aborts the
/// run; per-job `Err`s score as [`FITNESS_FAILED`].
pub type EvalFn<'a> = dyn FnMut(&[Job]) -> Result<Vec<Result<JobReport, JobError>>, JobError> + 'a;

/// One scored candidate evaluation.
#[derive(Debug, Clone)]
pub struct EvalRecord {
    /// The design point.
    pub candidate: Candidate,
    /// The job's content address (joins against cache/journal records).
    pub key: String,
    /// Fitness, lower is better (see [`fitness`]).
    pub fitness: f64,
    /// Measured SNDR, dB (None if the job failed).
    pub sndr_db: Option<f64>,
    /// Walden FOM, fJ/conv (full flows only).
    pub fom_fj: Option<f64>,
    /// Failure message, if the job failed.
    pub error: Option<String>,
}

impl EvalRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("candidate".into(), self.candidate.to_json()),
            ("key".into(), Json::Str(self.key.clone())),
            ("fitness".into(), Json::Num(self.fitness)),
            ("sndr_db".into(), self.sndr_db.map_or(Json::Null, Json::Num)),
            ("fom_fj".into(), self.fom_fj.map_or(Json::Null, Json::Num)),
            (
                "error".into(),
                self.error
                    .as_ref()
                    .map_or(Json::Null, |e| Json::Str(e.clone())),
            ),
        ])
    }
}

/// One generation (CMA) or rung (halving) of the search.
#[derive(Debug, Clone)]
pub struct Generation {
    /// Zero-based generation / rung index.
    pub index: usize,
    /// FFT capture length the generation evaluated at.
    pub samples: usize,
    /// Global step size after this generation (CMA only).
    pub sigma: Option<f64>,
    /// Scored evaluations, in ask order.
    pub evals: Vec<EvalRecord>,
    /// Best fitness inside this generation.
    pub best_fitness: f64,
}

impl Generation {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("generation".into(), Json::Num(self.index as f64)),
            ("samples".into(), Json::Num(self.samples as f64)),
            ("sigma".into(), self.sigma.map_or(Json::Null, Json::Num)),
            ("best_fitness".into(), Json::Num(self.best_fitness)),
            (
                "evals".into(),
                Json::Arr(self.evals.iter().map(EvalRecord::to_json).collect()),
            ),
        ])
    }
}

/// The winning design point, always scored at full fidelity.
#[derive(Debug, Clone)]
pub struct BestResult {
    /// The design point.
    pub candidate: Candidate,
    /// Its fitness (lower is better).
    pub fitness: f64,
    /// The job that produced the winning report.
    pub job: Job,
    /// The winning report.
    pub report: JobReport,
}

/// The complete, deterministic result of an optimization run: the full
/// generation history plus the best design. Contains no wall-clock,
/// cache-hit or host information — [`OptReport::to_json`] is
/// byte-identical across reruns and resumes of the same config.
#[derive(Debug, Clone)]
pub struct OptReport {
    /// The config that produced this report.
    pub config: OptConfig,
    /// Every generation, in order.
    pub generations: Vec<Generation>,
    /// The winner.
    pub best: BestResult,
    /// Total evaluations submitted.
    pub evals: usize,
    /// Number of times the running best improved.
    pub improvements: usize,
}

impl OptReport {
    /// The canonical `optimize.json` body (minus run-local metadata like
    /// the run id, which the CLI layers on top).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("config".into(), self.config.to_json()),
            ("evals".into(), Json::Num(self.evals as f64)),
            ("improvements".into(), Json::Num(self.improvements as f64)),
            (
                "best".into(),
                Json::Obj(vec![
                    ("candidate".into(), self.best.candidate.to_json()),
                    ("fitness".into(), Json::Num(self.best.fitness)),
                    ("job".into(), self.best.job.to_json()),
                    ("report".into(), self.best.report.to_json()),
                ]),
            ),
            (
                "generations".into(),
                Json::Arr(self.generations.iter().map(Generation::to_json).collect()),
            ),
        ])
    }
}

/// Scores one evaluation result; lower is better.
///
/// * Failed jobs (including infeasible specs) score [`FITNESS_FAILED`].
/// * Sim-kind runs maximize SNDR: fitness = −SNDR\[dB\].
/// * Full flows below the SNDR floor score
///   [`FITNESS_FLOOR_PENALTY`] + 1000·(floor − SNDR), so the infeasible
///   region still has a gradient pointing back toward feasibility.
/// * Feasible full flows score their Walden FOM in fJ/conv.
pub fn fitness(result: &Result<JobReport, JobError>, kind: JobKind, sndr_floor_db: f64) -> f64 {
    match result {
        Err(_) => FITNESS_FAILED,
        Ok(r) => match kind {
            JobKind::SimTone => -r.sndr_db,
            JobKind::FullFlow => {
                if r.sndr_db < sndr_floor_db {
                    FITNESS_FLOOR_PENALTY + 1000.0 * (sndr_floor_db - r.sndr_db)
                } else {
                    r.fom_fj.unwrap_or(FITNESS_FAILED)
                }
            }
        },
    }
}

/// Runs the configured search, pushing every generation through `eval`.
///
/// # Errors
///
/// [`OptError::Config`] if the config fails validation or no candidate
/// ever produced a usable report; [`OptError::Eval`] if `eval` fails a
/// whole batch.
pub fn optimize(config: &OptConfig, eval: &mut EvalFn) -> Result<OptReport, OptError> {
    let config = config.clone().validated().map_err(OptError::Config)?;
    let mut run = RunState::new(config.clone());
    match config.strategy {
        Strategy::Cma => run_cma(&config, &mut run, eval)?,
        Strategy::Halving => run_halving(&config, &mut run, eval)?,
    }
    run.finish()
}

/// Shared bookkeeping across both strategies.
struct RunState {
    config: OptConfig,
    generations: Vec<Generation>,
    best: Option<BestResult>,
    evals: usize,
    improvements: usize,
}

impl RunState {
    fn new(config: OptConfig) -> Self {
        RunState {
            config,
            generations: Vec::new(),
            best: None,
            evals: 0,
            improvements: 0,
        }
    }

    /// Evaluates one generation of candidates at the given fidelity and
    /// records it. `track_best` is false on low-fidelity halving rungs —
    /// the winner must always come from a full-fidelity evaluation.
    fn run_generation(
        &mut self,
        candidates: &[Candidate],
        samples: usize,
        track_best: bool,
        eval: &mut EvalFn,
    ) -> Result<Vec<f64>, OptError> {
        let index = self.generations.len();
        let _span = tdsigma_obs::span("opt.generation")
            .attr("generation", index)
            .attr("candidates", candidates.len())
            .attr("samples", samples);
        let jobs: Vec<Job> = candidates
            .iter()
            .map(|c| {
                c.to_job(
                    &self.config.space,
                    self.config.kind,
                    samples,
                    self.config.seed,
                )
            })
            .collect();
        let results = eval(&jobs).map_err(OptError::Eval)?;
        if results.len() != jobs.len() {
            return Err(OptError::Eval(JobError::Invalid(format!(
                "evaluator returned {} results for {} jobs",
                results.len(),
                jobs.len()
            ))));
        }
        self.evals += jobs.len();
        tdsigma_obs::counter("opt.evals").add(jobs.len() as u64);

        let mut fits = Vec::with_capacity(jobs.len());
        let mut evals = Vec::with_capacity(jobs.len());
        for ((candidate, job), result) in candidates.iter().zip(&jobs).zip(&results) {
            let fit = fitness(result, self.config.kind, self.config.sndr_floor_db);
            fits.push(fit);
            evals.push(EvalRecord {
                candidate: candidate.clone(),
                key: job.key(),
                fitness: fit,
                sndr_db: result.as_ref().ok().map(|r| r.sndr_db),
                fom_fj: result.as_ref().ok().and_then(|r| r.fom_fj),
                error: result.as_ref().err().map(|e| e.to_string()),
            });
            if track_best
                && fit < FITNESS_FAILED
                && self.best.as_ref().is_none_or(|b| fit < b.fitness)
            {
                if let Ok(report) = result {
                    self.improvements += 1;
                    tdsigma_obs::counter("opt.improvements").inc();
                    if let Some(fom) = report.fom_fj {
                        tdsigma_obs::gauge("opt.best_fom_fj").set(fom);
                    }
                    self.best = Some(BestResult {
                        candidate: candidate.clone(),
                        fitness: fit,
                        job: job.clone(),
                        report: report.clone(),
                    });
                }
            }
        }
        let best_fitness = fits.iter().copied().fold(f64::INFINITY, f64::min);
        self.generations.push(Generation {
            index,
            samples,
            sigma: None,
            evals,
            best_fitness,
        });
        Ok(fits)
    }

    fn finish(self) -> Result<OptReport, OptError> {
        let best = self.best.ok_or_else(|| {
            OptError::Config(
                "no candidate produced a usable report — every evaluation failed".into(),
            )
        })?;
        Ok(OptReport {
            config: self.config,
            generations: self.generations,
            best,
            evals: self.evals,
            improvements: self.improvements,
        })
    }
}

/// The jobs the first generation will submit — what `tdsigma optimize
/// --dry-run` previews. Later generations depend on results (the search
/// is adaptive), so only generation 0 / rung 0 is predictable up front.
pub fn initial_jobs(config: &OptConfig) -> Result<Vec<Job>, OptError> {
    let config = config.clone().validated().map_err(OptError::Config)?;
    let (candidates, samples) = match config.strategy {
        Strategy::Cma => {
            let warm = config.space.encode(&config.space.default_candidate());
            let pop = CmaState::new(warm, config.seed).ask(config.lambda());
            let c = pop.iter().map(|x| config.space.decode(x)).collect();
            (c, config.samples)
        }
        Strategy::Halving => {
            let (field, rungs) = halving_start(&config);
            (field, rungs[0])
        }
    };
    Ok(candidates
        .iter()
        .map(|c| c.to_job(&config.space, config.kind, samples, config.seed))
        .collect())
}

fn run_cma(config: &OptConfig, run: &mut RunState, eval: &mut EvalFn) -> Result<(), OptError> {
    let lambda = config.lambda();
    let generations = (config.budget / lambda).max(1);
    let warm = config.space.encode(&config.space.default_candidate());
    let mut state = CmaState::new(warm, config.seed);
    for _ in 0..generations {
        let pop = state.ask(lambda);
        let candidates: Vec<Candidate> = pop.iter().map(|x| config.space.decode(x)).collect();
        let fits = run.run_generation(&candidates, config.samples, true, eval)?;
        state.tell(&pop, &fits);
        if let Some(g) = run.generations.last_mut() {
            g.sigma = Some(state.sigma);
        }
    }
    Ok(())
}

/// The halving race's starting field and fidelity rungs.
fn halving_start(config: &OptConfig) -> (Vec<Candidate>, Vec<usize>) {
    // Rising-fidelity rungs: quarter, half and full capture length,
    // deduplicated and floored at the 2048-sample SNDR-measurability
    // limit (see [`OptConfig::validated`]).
    let mut rungs = vec![config.samples / 4, config.samples / 2, config.samples];
    for r in &mut rungs {
        *r = (*r).max(2048);
    }
    rungs.dedup();

    // Size the initial field so the whole race fits the budget:
    // n + n/2 + n/4 ≈ 7n/4 evaluations over three rungs.
    let denominator: f64 = (0..rungs.len()).map(|i| 0.5_f64.powi(i as i32)).sum();
    let n0 = ((config.budget as f64 / denominator).floor() as usize).max(1);

    // Candidate 0 is the warm start; the rest are uniform in the cube,
    // one decorrelated sub-stream per candidate.
    let base = Rng64::seed_from_u64(config.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut field: Vec<Candidate> = Vec::with_capacity(n0);
    field.push(config.space.default_candidate());
    for i in 1..n0 {
        let mut r = base.split(i as u64);
        let x: Vec<f64> = (0..crate::space::DIMS).map(|_| r.gen_f64()).collect();
        field.push(config.space.decode(&x));
    }
    (field, rungs)
}

fn run_halving(config: &OptConfig, run: &mut RunState, eval: &mut EvalFn) -> Result<(), OptError> {
    let (mut field, rungs) = halving_start(config);

    for (rung, &samples) in rungs.iter().enumerate() {
        let last = rung == rungs.len() - 1;
        let fits = run.run_generation(&field, samples, last, eval)?;
        if last {
            break;
        }
        // Keep the best half — and always the warm start (elitism), so
        // low-fidelity noise can never eliminate the paper baseline
        // before it is scored at full fidelity.
        let mut order: Vec<usize> = (0..field.len()).collect();
        order.sort_by(|&a, &b| fits[a].total_cmp(&fits[b]));
        let keep = field.len().div_ceil(2);
        let mut chosen: Vec<usize> = order.into_iter().take(keep).collect();
        if !chosen.contains(&0) {
            chosen.pop();
            chosen.push(0);
        }
        chosen.sort_unstable();
        field = chosen.into_iter().map(|i| field[i].clone()).collect();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic evaluator: SNDR/FOM are smooth functions of the knobs
    /// with a known optimum, no flows involved.
    fn synthetic_eval(jobs: &[Job]) -> Result<Vec<Result<JobReport, JobError>>, JobError> {
        Ok(jobs
            .iter()
            .map(|job| {
                // FOM bowl: best at 12 slices, rdac 30 kΩ; SNDR rises
                // with slices.
                let sndr = 60.0 + job.slices as f64 * 2.0;
                let fom = 50.0
                    + (job.slices as f64 - 12.0).powi(2)
                    + ((job.rdac_ohm / 1000.0) - 30.0).powi(2) * 0.1;
                Ok(JobReport {
                    key: job.key(),
                    job: job.clone(),
                    fin_hz: job.input_frequency_hz(),
                    sndr_db: sndr,
                    enob: (sndr - 1.76) / 6.02,
                    power_mw: Some(1.0),
                    digital_fraction: Some(0.9),
                    area_mm2: Some(0.01),
                    fom_fj: Some(fom),
                    timing_slack_ps: Some(10.0),
                })
            })
            .collect())
    }

    fn test_config(strategy: Strategy) -> OptConfig {
        OptConfig {
            strategy,
            budget: 48,
            ..OptConfig::flow(SearchSpace::default())
        }
    }

    #[test]
    fn cma_run_is_deterministic_and_improves_on_warm_start() {
        let config = test_config(Strategy::Cma);
        let a = optimize(&config, &mut synthetic_eval).unwrap();
        let b = optimize(&config, &mut synthetic_eval).unwrap();
        assert_eq!(
            a.to_json().to_text(),
            b.to_json().to_text(),
            "same config must produce byte-identical reports"
        );
        // Warm start (8 slices → FOM 50+16+6.4) is evaluated first, and
        // the optimum (12 slices) scores strictly better.
        let warm = config.space.default_candidate();
        let warm_fit = a.generations[0].evals[0].fitness;
        assert_eq!(a.generations[0].evals[0].candidate, warm);
        assert!(
            a.best.fitness <= warm_fit,
            "best {} must not be worse than the warm start {}",
            a.best.fitness,
            warm_fit
        );
        assert!(a.evals <= config.budget, "budget is a hard cap");
        assert!(a.improvements >= 1);
    }

    #[test]
    fn halving_races_through_rungs_and_keeps_the_warm_start() {
        let config = test_config(Strategy::Halving);
        let report = optimize(&config, &mut synthetic_eval).unwrap();
        let rung_samples: Vec<usize> = report.generations.iter().map(|g| g.samples).collect();
        assert_eq!(rung_samples, vec![4096, 8192, 16_384]);
        // The field halves between rungs.
        let sizes: Vec<usize> = report.generations.iter().map(|g| g.evals.len()).collect();
        assert!(sizes[0] > sizes[1] && sizes[1] > sizes[2], "{sizes:?}");
        assert!(report.evals <= config.budget);
        // The warm start survives to the full-fidelity rung.
        let warm = config.space.default_candidate();
        assert!(
            report
                .generations
                .last()
                .unwrap()
                .evals
                .iter()
                .any(|e| e.candidate == warm),
            "elitism must carry the paper point to full fidelity"
        );
        // The winner comes from the full-fidelity rung.
        assert_eq!(report.best.job.samples, config.samples);
        let b = optimize(&config, &mut synthetic_eval).unwrap();
        assert_eq!(report.to_json().to_text(), b.to_json().to_text());
    }

    #[test]
    fn sim_kind_maximizes_sndr() {
        let config = OptConfig {
            kind: JobKind::SimTone,
            samples: 8192,
            ..test_config(Strategy::Cma)
        };
        let report = optimize(&config, &mut synthetic_eval).unwrap();
        // SNDR grows with slices, so the search should push to 16.
        assert!(
            report.best.candidate.slices >= 12,
            "expected high slice count, got {}",
            report.best.candidate.slices
        );
        assert_eq!(report.best.fitness, -report.best.report.sndr_db);
    }

    #[test]
    fn floor_penalty_grades_infeasible_designs() {
        let ok = Ok(JobReport {
            sndr_db: 65.0,
            ..synthetic_eval(&[Job::flow(40.0, 750e6, 5e6)]).unwrap()[0]
                .as_ref()
                .unwrap()
                .clone()
        });
        let f65 = fitness(&ok, JobKind::FullFlow, 70.0);
        assert!(f65 > FITNESS_FLOOR_PENALTY);
        let worse = Ok(JobReport {
            sndr_db: 60.0,
            ..ok.as_ref().unwrap().clone()
        });
        let f60 = fitness(&worse, JobKind::FullFlow, 70.0);
        assert!(f60 > f65, "deeper shortfall must score worse");
        let failed: Result<JobReport, JobError> = Err(JobError::Invalid("x".into()));
        assert_eq!(fitness(&failed, JobKind::FullFlow, 70.0), FITNESS_FAILED);
    }

    #[test]
    fn all_failures_is_a_loud_error() {
        let config = OptConfig {
            budget: 8,
            ..test_config(Strategy::Cma)
        };
        let mut eval = |jobs: &[Job]| -> Result<Vec<Result<JobReport, JobError>>, JobError> {
            Ok(jobs
                .iter()
                .map(|_| Err(JobError::Invalid("boom".into())))
                .collect())
        };
        match optimize(&config, &mut eval) {
            Err(OptError::Config(m)) => assert!(m.contains("every evaluation failed"), "{m}"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn config_json_roundtrip_and_validation() {
        let config = test_config(Strategy::Halving);
        let text = config.to_json().to_text();
        let back = OptConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, config);
        assert!(OptConfig {
            budget: 0,
            ..config.clone()
        }
        .validated()
        .is_err());
        assert!(OptConfig {
            samples: 1000,
            ..config.clone()
        }
        .validated()
        .is_err());
        assert!(OptConfig {
            population: 1000,
            ..config
        }
        .validated()
        .is_err());
    }
}
