//! Server configuration from `GENIEX_SERVE_*` environment knobs.
//!
//! The load generator builds its funcsim oracle from the *same*
//! config (same env, same defaults), so the server's answers can be
//! compared bit-for-bit against a local computation. Every knob is
//! therefore part of the workload identity and lands in the run
//! manifest.

use telemetry::Json;

/// Which crossbar backend serves requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Parasitic-free linear tiles.
    Ideal,
    /// Linear analytical parasitics model.
    Analytical,
    /// Trained GENIEx neural surrogate (the paper's model).
    Geniex,
}

impl EngineKind {
    /// Short name (manifest/stats value and env spelling).
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Ideal => "ideal",
            EngineKind::Analytical => "analytical",
            EngineKind::Geniex => "geniex",
        }
    }

    fn parse(s: &str) -> Option<EngineKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ideal" => Some(EngineKind::Ideal),
            "analytical" => Some(EngineKind::Analytical),
            "geniex" => Some(EngineKind::Geniex),
            _ => None,
        }
    }
}

/// Whether a vision model is kept hot for `Infer` requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// MVM-only service; `Infer` requests are rejected.
    None,
    /// The synth-s MicroResNet workload.
    SynthS,
}

impl ModelKind {
    /// Short name (manifest/stats value and env spelling).
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::None => "none",
            ModelKind::SynthS => "synth-s",
        }
    }

    /// Image shape `[channels, height, width]` this model's `Infer`
    /// requests carry (all zero for an MVM-only service).
    pub fn input_shape(&self) -> [usize; 3] {
        match self {
            ModelKind::None => [0; 3],
            ModelKind::SynthS => {
                let (c, h, w) = vision::SynthSpec::SynthS.image_shape();
                [c, h, w]
            }
        }
    }

    fn parse(s: &str) -> Option<ModelKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" => Some(ModelKind::None),
            "synth-s" | "synths" => Some(ModelKind::SynthS),
            _ => None,
        }
    }
}

/// Complete serve configuration. See [`ServeConfig::from_env`] for
/// the knobs and defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address (`GENIEX_SERVE_ADDR`), default `127.0.0.1:4917`.
    /// Port 0 binds an ephemeral port (printed on the READY line).
    pub addr: String,
    /// Max requests coalesced into one compute batch
    /// (`GENIEX_SERVE_BATCH`), default 16.
    pub max_batch: usize,
    /// Max time a forming batch waits for stragglers, in µs
    /// (`GENIEX_SERVE_LINGER_US`), default 200.
    pub linger_us: u64,
    /// Admission-queue capacity before backpressure
    /// (`GENIEX_SERVE_QUEUE`), default 1024.
    pub queue_capacity: usize,
    /// Crossbar backend (`GENIEX_SERVE_ENGINE`), default `geniex`.
    pub engine: EngineKind,
    /// Crossbar tile size (`GENIEX_SERVE_XBAR`), default 16.
    pub xbar: usize,
    /// MVM service matrix input width (`GENIEX_SERVE_K`), default 48.
    pub k: usize,
    /// MVM service matrix output width (`GENIEX_SERVE_M`), default 48.
    pub m: usize,
    /// Weight seed of the service matrix (`GENIEX_SERVE_SEED`),
    /// default 42.
    pub seed: u64,
    /// Vision model kept hot (`GENIEX_SERVE_MODEL`), default
    /// `synth-s`.
    pub model: ModelKind,
    /// GENIEx surrogate budget (`GENIEX_SERVE_SURROGATE_SAMPLES` /
    /// `_HIDDEN` / `_EPOCHS`), defaults 240 / 48 / 40 — far below the
    /// figure-quality budgets, but the serve benchmarks measure
    /// throughput, not surrogate fidelity.
    pub surrogate_samples: usize,
    pub surrogate_hidden: usize,
    pub surrogate_epochs: usize,
    /// Vision training budget (`GENIEX_SERVE_TRAIN_PER_CLASS` /
    /// `GENIEX_SERVE_TRAIN_EPOCHS`), defaults 8 / 6.
    pub train_per_class: usize,
    pub train_epochs: usize,
    /// Conductance drift time (`GENIEX_SERVE_DRIFT_T`), default 0
    /// (disabled). Values > 1 activate the zoo's `g(t) = g0·(t/t0)^-ν`
    /// drift model with `t0` fixed at 1, aging every programmed tile.
    pub drift_t: f64,
    /// Drift exponent ν (`GENIEX_SERVE_DRIFT_NU`), default 0.05.
    pub drift_nu: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:4917".to_string(),
            max_batch: 16,
            linger_us: 200,
            queue_capacity: 1024,
            engine: EngineKind::Geniex,
            xbar: 16,
            k: 48,
            m: 48,
            seed: 42,
            model: ModelKind::SynthS,
            surrogate_samples: 240,
            surrogate_hidden: 48,
            surrogate_epochs: 40,
            train_per_class: 8,
            train_epochs: 6,
            drift_t: 0.0,
            drift_nu: 0.05,
        }
    }
}

fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

impl ServeConfig {
    /// Reads the `GENIEX_SERVE_*` knobs, falling back to the defaults
    /// above. Invalid values silently fall back (same policy as
    /// `GENIEX_THREADS` and `GENIEX_GATE_TOLERANCE`).
    pub fn from_env() -> Self {
        let d = ServeConfig::default();
        ServeConfig {
            addr: std::env::var("GENIEX_SERVE_ADDR").unwrap_or(d.addr),
            max_batch: env_parse("GENIEX_SERVE_BATCH", d.max_batch).max(1),
            linger_us: env_parse("GENIEX_SERVE_LINGER_US", d.linger_us),
            queue_capacity: env_parse("GENIEX_SERVE_QUEUE", d.queue_capacity).max(1),
            engine: std::env::var("GENIEX_SERVE_ENGINE")
                .ok()
                .and_then(|v| EngineKind::parse(&v))
                .unwrap_or(d.engine),
            xbar: env_parse("GENIEX_SERVE_XBAR", d.xbar).max(2),
            k: env_parse("GENIEX_SERVE_K", d.k).max(1),
            m: env_parse("GENIEX_SERVE_M", d.m).max(1),
            seed: env_parse("GENIEX_SERVE_SEED", d.seed),
            model: std::env::var("GENIEX_SERVE_MODEL")
                .ok()
                .and_then(|v| ModelKind::parse(&v))
                .unwrap_or(d.model),
            surrogate_samples: env_parse("GENIEX_SERVE_SURROGATE_SAMPLES", d.surrogate_samples)
                .max(8),
            surrogate_hidden: env_parse("GENIEX_SERVE_SURROGATE_HIDDEN", d.surrogate_hidden).max(2),
            surrogate_epochs: env_parse("GENIEX_SERVE_SURROGATE_EPOCHS", d.surrogate_epochs).max(1),
            train_per_class: env_parse("GENIEX_SERVE_TRAIN_PER_CLASS", d.train_per_class).max(1),
            train_epochs: env_parse("GENIEX_SERVE_TRAIN_EPOCHS", d.train_epochs).max(1),
            drift_t: env_parse("GENIEX_SERVE_DRIFT_T", d.drift_t),
            drift_nu: env_parse("GENIEX_SERVE_DRIFT_NU", d.drift_nu),
        }
    }

    /// Whether the drift knobs activate the non-ideality zoo (a drift
    /// time at or below the reference `t0 = 1` is the identity).
    pub fn drift_active(&self) -> bool {
        self.drift_t > 1.0 && self.drift_nu > 0.0
    }

    /// Manifest/stats fields describing this configuration (the
    /// satellite requirement: serve config lands in run manifests).
    pub fn manifest_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("addr", Json::from(self.addr.as_str())),
            ("max_batch", Json::from(self.max_batch)),
            ("linger_us", Json::from(self.linger_us)),
            ("queue_capacity", Json::from(self.queue_capacity)),
            ("engine", Json::from(self.engine.name())),
            ("xbar", Json::from(self.xbar)),
            ("k", Json::from(self.k)),
            ("m", Json::from(self.m)),
            ("seed", Json::from(self.seed)),
            ("model", Json::from(self.model.name())),
            ("surrogate_samples", Json::from(self.surrogate_samples)),
            ("surrogate_hidden", Json::from(self.surrogate_hidden)),
            ("surrogate_epochs", Json::from(self.surrogate_epochs)),
            ("train_per_class", Json::from(self.train_per_class)),
            ("train_epochs", Json::from(self.train_epochs)),
            ("drift_t", Json::from(self.drift_t)),
            ("drift_nu", Json::from(self.drift_nu)),
            ("threads", Json::from(parallel::default_threads())),
        ]
    }
}

/// Results directory at the repo root (mirrors `bench::setup`; serve
/// cannot depend on bench without a cycle, bench depends on serve for
/// the loadgen client).
pub fn results_dir() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/serve; results live at the repo root.
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_input_shape_matches_the_served_network() {
        let network = vision::MicroResNet::new(vision::SynthSpec::SynthS, 3).to_spec();
        assert_eq!(ModelKind::SynthS.input_shape(), network.input_shape);
        assert_eq!(ModelKind::None.input_shape(), [0; 3]);
    }

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.max_batch >= 1);
        assert!(c.queue_capacity >= c.max_batch);
        assert_eq!(c.engine, EngineKind::Geniex);
        assert_eq!(c.engine.name(), "geniex");
        assert_eq!(c.model.name(), "synth-s");
        assert!(c.k % c.xbar == 0, "default k tiles evenly");
    }

    #[test]
    fn engine_and_model_names_parse_back() {
        for e in [
            EngineKind::Ideal,
            EngineKind::Analytical,
            EngineKind::Geniex,
        ] {
            assert_eq!(EngineKind::parse(e.name()), Some(e));
        }
        assert_eq!(EngineKind::parse("bogus"), None);
        for m in [ModelKind::None, ModelKind::SynthS] {
            assert_eq!(ModelKind::parse(m.name()), Some(m));
        }
        assert_eq!(ModelKind::parse("bogus"), None);
    }

    #[test]
    fn manifest_fields_cover_the_key_knobs() {
        let fields = ServeConfig::default().manifest_fields();
        for want in ["addr", "max_batch", "linger_us", "engine", "threads"] {
            assert!(
                fields.iter().any(|(k, _)| *k == want),
                "missing manifest field {want}"
            );
        }
    }
}
