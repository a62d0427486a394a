//! Supply-voltage scaling laws.
//!
//! Paper Section VI-B: "Maximum execution speed increases with voltage,
//! but total power increases as voltage squared. Consequently, SOPS/W is
//! maximized at lower voltages, limited only by the minimum voltage that
//! can still ensure correct circuit-level functional operation (∼700mV)."
//! The regressions were run from 0.67 V to 1.05 V; the characterization
//! contours of Fig. 5 are taken at 0.75 V.
//!
//! The model: dynamic energy per event scales as `(V/V₀)²` (CV² switching
//! energy), leakage power as `(V/V₀)³` (supply × exponential-ish DIBL,
//! linearized over the narrow operating range), and logic speed as the
//! overdrive `(V − V_th)/(V₀ − V_th)`.

/// Nominal characterization voltage of paper Fig. 5(a,b,d,e).
pub const V_NOMINAL: f64 = 0.75;
/// Minimum voltage for correct functional operation (paper: ~700 mV).
pub const V_MIN: f64 = 0.70;
/// Effective threshold voltage of the speed model.
pub const V_TH: f64 = 0.55;

/// Voltage operating point with derived scale factors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VoltageParams {
    /// Supply voltage in volts.
    pub v: f64,
}

impl Default for VoltageParams {
    fn default() -> Self {
        VoltageParams { v: V_NOMINAL }
    }
}

impl VoltageParams {
    /// Operating point at `v` volts. Panics outside the modelled
    /// 0.60–1.20 V envelope (the silicon is only specified for
    /// 0.67–1.05 V; we allow a little margin for sweeps).
    pub fn new(v: f64) -> Self {
        assert!(
            (0.60..=1.20).contains(&v),
            "voltage {v} V outside modelled envelope"
        );
        VoltageParams { v }
    }

    /// Scale factor on all dynamic (per-event) energies: `(V/V₀)²`.
    pub fn dynamic_energy_scale(&self) -> f64 {
        (self.v / V_NOMINAL).powi(2)
    }

    /// Scale factor on leakage power: `(V/V₀)³`.
    pub fn leakage_power_scale(&self) -> f64 {
        (self.v / V_NOMINAL).powi(3)
    }

    /// Scale factor on logic speed: overdrive-linear.
    pub fn speed_scale(&self) -> f64 {
        (self.v - V_TH) / (V_NOMINAL - V_TH)
    }

    /// Whether the chip is functionally reliable at this voltage (paper:
    /// correctness maintained down to ~0.7 V).
    pub fn functional(&self) -> bool {
        self.v >= V_MIN - 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_point_has_unity_scales() {
        let vp = VoltageParams::default();
        assert!((vp.dynamic_energy_scale() - 1.0).abs() < 1e-12);
        assert!((vp.leakage_power_scale() - 1.0).abs() < 1e-12);
        assert!((vp.speed_scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn higher_voltage_is_faster_and_hungrier() {
        let lo = VoltageParams::new(0.70);
        let hi = VoltageParams::new(1.05);
        assert!(hi.speed_scale() > lo.speed_scale());
        assert!(hi.dynamic_energy_scale() > lo.dynamic_energy_scale());
        assert!(hi.leakage_power_scale() > lo.leakage_power_scale());
        // 1.05 V should be at least 2× faster than 0.75 V nominal.
        assert!(hi.speed_scale() > 2.0, "{}", hi.speed_scale());
    }

    #[test]
    fn efficiency_improves_at_low_voltage() {
        // Energy-per-op ∝ dynamic scale must rise monotonically with V,
        // i.e. efficiency is best at the lowest functional voltage — the
        // mechanism behind paper Fig. 5(f).
        let mut last = 0.0;
        for mv in (70..=105).step_by(5) {
            let s = VoltageParams::new(mv as f64 / 100.0).dynamic_energy_scale();
            assert!(s > last);
            last = s;
        }
    }

    #[test]
    fn functional_floor() {
        assert!(VoltageParams::new(0.70).functional());
        assert!(!VoltageParams::new(0.65).functional());
    }

    #[test]
    #[should_panic(expected = "outside modelled envelope")]
    fn absurd_voltage_rejected() {
        VoltageParams::new(2.0);
    }
}
