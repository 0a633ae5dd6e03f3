//! Crossbar design parameters and non-ideality configuration.

use crate::XbarError;

/// Compact-model parameters of the filamentary RRAM device and its
/// access device.
///
/// Defaults follow Section 6 of the paper: `d0 = 0.25 nm`,
/// `V0 = 0.25 V`, `I0 = 0.1 mA`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Gap-scale of the exponential term (nanometres).
    pub d0: f64,
    /// Voltage scale of the sinh term (volts).
    pub v0: f64,
    /// Current prefactor (amperes).
    pub i0: f64,
    /// Access-device on-conductance (siemens).
    pub access_g: f64,
    /// Access-device saturation voltage (volts).
    pub access_v_sat: f64,
}

impl DeviceParams {
    /// Paper defaults: `d0 = 0.25 nm`, `V0 = 0.25 V`, `I0 = 0.1 mA`,
    /// access device `G = 50 µS`, `V_sat = 0.6 V` (TSMC 65 nm-class
    /// on-resistance of ≈ 20 kΩ).
    pub fn new() -> Self {
        DeviceParams {
            d0: 0.25,
            v0: 0.25,
            i0: 1e-4,
            access_g: 5e-5,
            access_v_sat: 0.6,
        }
    }
}

impl Default for DeviceParams {
    fn default() -> Self {
        DeviceParams::new()
    }
}

/// Which categories of non-ideality the circuit includes (Table 2 of
/// the paper).
///
/// The default enables everything; the analytical baseline corresponds
/// to `linear_only()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonIdealityConfig {
    /// Parasitic source/sink/wire resistances (linear non-idealities).
    pub parasitics: bool,
    /// Device sinh non-linearity (non-linear non-ideality).
    pub device_nonlinearity: bool,
    /// Access-device (selector/transistor) non-linearity.
    pub access_device: bool,
}

impl NonIdealityConfig {
    /// Everything enabled — the full non-ideal crossbar.
    pub fn all() -> Self {
        NonIdealityConfig {
            parasitics: true,
            device_nonlinearity: true,
            access_device: true,
        }
    }

    /// Only linear non-idealities (what analytical models capture).
    pub fn linear_only() -> Self {
        NonIdealityConfig {
            parasitics: true,
            device_nonlinearity: false,
            access_device: false,
        }
    }

    /// No non-idealities at all — the circuit degenerates to the ideal
    /// MVM (used as a solver sanity check).
    pub fn none() -> Self {
        NonIdealityConfig {
            parasitics: false,
            device_nonlinearity: false,
            access_device: false,
        }
    }
}

impl Default for NonIdealityConfig {
    fn default() -> Self {
        NonIdealityConfig::all()
    }
}

/// Full design-point description of a crossbar.
///
/// Construct through [`CrossbarParams::builder`]; defaults follow the
/// paper's experimental methodology (Section 6): 64×64, Ron = 100 kΩ,
/// ON/OFF = 6, Rsource = 500 Ω, Rsink = 100 Ω, Rwire = 2.5 Ω/cell,
/// Vsupply = 0.25 V.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), xbar::XbarError> {
/// use xbar::CrossbarParams;
/// let p = CrossbarParams::builder(64, 64)
///     .r_on(100e3)
///     .on_off_ratio(6.0)
///     .v_supply(0.25)
///     .build()?;
/// assert!((p.g_on() - 1e-5).abs() < 1e-18);
/// assert!((p.g_off() - 1e-5 / 6.0).abs() < 1e-18);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarParams {
    /// Number of word lines (rows / input dimension).
    pub rows: usize,
    /// Number of bit lines (columns / output dimension).
    pub cols: usize,
    /// ON-state resistance (ohms).
    pub r_on: f64,
    /// Conductance ON/OFF ratio (dimensionless, > 1).
    pub on_off_ratio: f64,
    /// Word-line driver source resistance (ohms).
    pub r_source: f64,
    /// Bit-line sense sink resistance (ohms).
    pub r_sink: f64,
    /// Wire resistance per cell segment (ohms).
    pub r_wire: f64,
    /// Supply voltage: the full-scale input level (volts).
    pub v_supply: f64,
    /// Device compact-model parameters.
    pub device: DeviceParams,
    /// Which non-idealities are active.
    pub nonideality: NonIdealityConfig,
}

impl CrossbarParams {
    /// Starts a builder for a `rows x cols` crossbar with paper-default
    /// parameters.
    pub fn builder(rows: usize, cols: usize) -> CrossbarParamsBuilder {
        CrossbarParamsBuilder {
            rows,
            cols,
            r_on: 100e3,
            on_off_ratio: 6.0,
            r_source: 500.0,
            r_sink: 100.0,
            r_wire: 2.5,
            v_supply: 0.25,
            device: DeviceParams::default(),
            nonideality: NonIdealityConfig::all(),
        }
    }

    /// ON-state conductance `1 / r_on` (siemens).
    pub fn g_on(&self) -> f64 {
        1.0 / self.r_on
    }

    /// OFF-state conductance `g_on / on_off_ratio` (siemens).
    pub fn g_off(&self) -> f64 {
        self.g_on() / self.on_off_ratio
    }

    /// Total node count of the assembled circuit (two per cell).
    pub fn node_count(&self) -> usize {
        2 * self.rows * self.cols
    }
}

/// Builder for [`CrossbarParams`] (see there for defaults).
#[derive(Debug, Clone)]
pub struct CrossbarParamsBuilder {
    rows: usize,
    cols: usize,
    r_on: f64,
    on_off_ratio: f64,
    r_source: f64,
    r_sink: f64,
    r_wire: f64,
    v_supply: f64,
    device: DeviceParams,
    nonideality: NonIdealityConfig,
}

impl CrossbarParamsBuilder {
    /// Sets the ON-state resistance in ohms (paper sweeps 50k/100k/300k).
    pub fn r_on(mut self, r_on: f64) -> Self {
        self.r_on = r_on;
        self
    }

    /// Sets the conductance ON/OFF ratio (paper sweeps 2/6/10).
    pub fn on_off_ratio(mut self, ratio: f64) -> Self {
        self.on_off_ratio = ratio;
        self
    }

    /// Sets the source resistance in ohms (paper uses 500/1000).
    pub fn r_source(mut self, r: f64) -> Self {
        self.r_source = r;
        self
    }

    /// Sets the sink resistance in ohms (paper uses 100/500).
    pub fn r_sink(mut self, r: f64) -> Self {
        self.r_sink = r;
        self
    }

    /// Sets the per-cell wire resistance in ohms (paper uses 2.5).
    pub fn r_wire(mut self, r: f64) -> Self {
        self.r_wire = r;
        self
    }

    /// Sets the supply (full-scale input) voltage (paper uses 0.25/0.5).
    pub fn v_supply(mut self, v: f64) -> Self {
        self.v_supply = v;
        self
    }

    /// Overrides the device compact-model parameters.
    pub fn device(mut self, device: DeviceParams) -> Self {
        self.device = device;
        self
    }

    /// Selects which non-idealities are active.
    pub fn nonideality(mut self, config: NonIdealityConfig) -> Self {
        self.nonideality = config;
        self
    }

    /// Validates and builds the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] if any dimension is zero,
    /// any resistance, the supply voltage or any device parameter is
    /// non-positive or non-finite (NaN included), the ON/OFF ratio is
    /// ≤ 1, or the device current `sinh(v_supply / v0)` overflows at the
    /// supply voltage.
    pub fn build(self) -> Result<CrossbarParams, XbarError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(XbarError::InvalidParameter(format!(
                "crossbar must be non-empty, got {}x{}",
                self.rows, self.cols
            )));
        }
        for (name, v) in [
            ("r_on", self.r_on),
            ("r_source", self.r_source),
            ("r_sink", self.r_sink),
            ("r_wire", self.r_wire),
            ("v_supply", self.v_supply),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(XbarError::InvalidParameter(format!(
                    "{name} must be positive and finite, got {v}"
                )));
            }
        }
        if !self.on_off_ratio.is_finite() || self.on_off_ratio <= 1.0 {
            return Err(XbarError::InvalidParameter(format!(
                "on_off_ratio must be > 1, got {}",
                self.on_off_ratio
            )));
        }
        let dev = &self.device;
        for (name, v) in [
            ("d0", dev.d0),
            ("v0", dev.v0),
            ("i0", dev.i0),
            ("access_g", dev.access_g),
            ("access_v_sat", dev.access_v_sat),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(XbarError::InvalidParameter(format!(
                    "device parameter {name} must be positive and finite, got {v}"
                )));
            }
        }
        if !(self.v_supply / dev.v0).sinh().is_finite() {
            return Err(XbarError::InvalidParameter(format!(
                "v_supply {} V overflows the device current sinh(v_supply / v0) at v0 = {} V",
                self.v_supply, dev.v0
            )));
        }
        Ok(CrossbarParams {
            rows: self.rows,
            cols: self.cols,
            r_on: self.r_on,
            on_off_ratio: self.on_off_ratio,
            r_source: self.r_source,
            r_sink: self.r_sink,
            r_wire: self.r_wire,
            v_supply: self.v_supply,
            device: self.device,
            nonideality: self.nonideality,
        })
    }
}

impl store::Canonical for DeviceParams {
    fn canonicalize(&self, key: &mut store::KeyBuilder) {
        key.f64("d0", self.d0)
            .f64("v0", self.v0)
            .f64("i0", self.i0)
            .f64("access_g", self.access_g)
            .f64("access_v_sat", self.access_v_sat);
    }
}

impl store::Canonical for NonIdealityConfig {
    fn canonicalize(&self, key: &mut store::KeyBuilder) {
        key.bool("parasitics", self.parasitics)
            .bool("device_nonlinearity", self.device_nonlinearity)
            .bool("access_device", self.access_device);
    }
}

impl store::Canonical for CrossbarParams {
    fn canonicalize(&self, key: &mut store::KeyBuilder) {
        key.usize("rows", self.rows)
            .usize("cols", self.cols)
            .f64("r_on", self.r_on)
            .f64("on_off_ratio", self.on_off_ratio)
            .f64("r_source", self.r_source)
            .f64("r_sink", self.r_sink)
            .f64("r_wire", self.r_wire)
            .f64("v_supply", self.v_supply)
            .nested("device", &self.device)
            .nested("nonideality", &self.nonideality);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = CrossbarParams::builder(64, 64).build().unwrap();
        assert_eq!(p.rows, 64);
        assert_eq!(p.r_on, 100e3);
        assert_eq!(p.on_off_ratio, 6.0);
        assert_eq!(p.r_source, 500.0);
        assert_eq!(p.r_sink, 100.0);
        assert_eq!(p.r_wire, 2.5);
        assert_eq!(p.v_supply, 0.25);
        assert_eq!(p.device.d0, 0.25);
        assert_eq!(p.device.v0, 0.25);
        assert_eq!(p.device.i0, 1e-4);
        assert_eq!(p.node_count(), 2 * 64 * 64);
    }

    #[test]
    fn conductances_derived() {
        let p = CrossbarParams::builder(4, 4)
            .r_on(50e3)
            .on_off_ratio(10.0)
            .build()
            .unwrap();
        assert!((p.g_on() - 2e-5).abs() < 1e-18);
        assert!((p.g_off() - 2e-6).abs() < 1e-18);
    }

    #[test]
    fn rejects_empty_crossbar() {
        assert!(CrossbarParams::builder(0, 4).build().is_err());
        assert!(CrossbarParams::builder(4, 0).build().is_err());
    }

    #[test]
    fn rejects_nonpositive_resistances() {
        assert!(CrossbarParams::builder(2, 2).r_on(0.0).build().is_err());
        assert!(CrossbarParams::builder(2, 2).r_wire(-1.0).build().is_err());
        assert!(CrossbarParams::builder(2, 2)
            .r_source(f64::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_bad_on_off_ratio() {
        assert!(CrossbarParams::builder(2, 2)
            .on_off_ratio(1.0)
            .build()
            .is_err());
        assert!(CrossbarParams::builder(2, 2)
            .on_off_ratio(0.5)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_bad_supply() {
        assert!(CrossbarParams::builder(2, 2).v_supply(0.0).build().is_err());
    }

    #[test]
    fn rejects_supply_that_overflows_the_device_current() {
        // sinh(v / 0.25) overflows past about 177.5 V.
        assert!(CrossbarParams::builder(2, 2)
            .v_supply(177.0)
            .build()
            .is_ok());
        for v in [178.0, 200.0] {
            let err = CrossbarParams::builder(2, 2).v_supply(v).build();
            assert!(
                matches!(err, Err(XbarError::InvalidParameter(_))),
                "v_supply {v}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_nan_device_parameters() {
        let fields: [fn(&mut DeviceParams) -> &mut f64; 5] = [
            |d| &mut d.d0,
            |d| &mut d.v0,
            |d| &mut d.i0,
            |d| &mut d.access_g,
            |d| &mut d.access_v_sat,
        ];
        for (k, field) in fields.iter().enumerate() {
            for bad in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
                let mut device = DeviceParams::default();
                *field(&mut device) = bad;
                let err = CrossbarParams::builder(2, 2).device(device).build();
                assert!(
                    matches!(err, Err(XbarError::InvalidParameter(_))),
                    "field {k} = {bad}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn nonideality_presets() {
        assert!(NonIdealityConfig::all().device_nonlinearity);
        assert!(!NonIdealityConfig::linear_only().device_nonlinearity);
        assert!(NonIdealityConfig::linear_only().parasitics);
        assert!(!NonIdealityConfig::none().parasitics);
        assert_eq!(NonIdealityConfig::default(), NonIdealityConfig::all());
    }

    #[test]
    fn builder_is_chainable_and_rectangular() {
        let p = CrossbarParams::builder(16, 32)
            .r_on(300e3)
            .r_source(1000.0)
            .r_sink(500.0)
            .v_supply(0.5)
            .nonideality(NonIdealityConfig::linear_only())
            .build()
            .unwrap();
        assert_eq!((p.rows, p.cols), (16, 32));
        assert_eq!(p.r_source, 1000.0);
        assert_eq!(p.nonideality, NonIdealityConfig::linear_only());
    }

    #[test]
    fn canonical_key_tracks_every_field() {
        let base = CrossbarParams::builder(16, 16).build().unwrap();
        let key = |p: &CrossbarParams| store::key_of(*b"test", p);
        assert_eq!(key(&base), key(&base.clone()));

        let variants = [
            CrossbarParams::builder(32, 16).build().unwrap(),
            CrossbarParams::builder(16, 16).r_on(50e3).build().unwrap(),
            CrossbarParams::builder(16, 16)
                .on_off_ratio(10.0)
                .build()
                .unwrap(),
            CrossbarParams::builder(16, 16).r_wire(3.0).build().unwrap(),
            CrossbarParams::builder(16, 16)
                .v_supply(0.5)
                .build()
                .unwrap(),
            CrossbarParams::builder(16, 16)
                .device(DeviceParams {
                    d0: 0.3,
                    ..DeviceParams::default()
                })
                .build()
                .unwrap(),
            CrossbarParams::builder(16, 16)
                .nonideality(NonIdealityConfig::linear_only())
                .build()
                .unwrap(),
        ];
        for v in &variants {
            assert_ne!(key(&base), key(v), "field change missed: {v:?}");
        }
    }
}
