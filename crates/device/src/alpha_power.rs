//! Sakurai–Newton alpha-power-law I–V surface shared by both technologies.

/// Normalized Sakurai–Newton alpha-power-law drain-current model.
///
/// The surface is expressed for an n-type device and normalized so that
/// `id(vdd, vdd) == 1`; callers scale by their on-current. The model is
/// C¹-continuous across the triode/saturation boundary and has zero current
/// (not merely small) below threshold — simulators add a `gmin` shunt for
/// convergence.
///
/// The parameters are fixed at [`AlphaPowerLaw::new`] and read through
/// accessors: the normalizing factor `(vdd − vth)^α` is computed once
/// there rather than on every current evaluation (four per FET per Newton
/// iteration in a transient), so no field may change behind its back.
///
/// # Example
///
/// ```
/// use cnfet_device::AlphaPowerLaw;
/// let m = AlphaPowerLaw::new(0.22, 1.25, 0.8, 1.0);
/// assert!((m.id(1.0, 1.0) - 1.0).abs() < 1e-12);
/// assert_eq!(m.id(0.1, 1.0), 0.0); // below threshold
/// assert_eq!((m.vth(), m.alpha(), m.vd0(), m.vdd()), (0.22, 1.25, 0.8, 1.0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AlphaPowerLaw {
    vth: f64,
    alpha: f64,
    vd0: f64,
    vdd: f64,
    /// `(vdd − vth)^α`: the saturation factor at `vgs = vdd`.
    full: f64,
}

impl AlphaPowerLaw {
    /// Creates a normalized alpha-power surface.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < vth < vdd` and `alpha >= 1`.
    pub fn new(vth: f64, alpha: f64, vd0: f64, vdd: f64) -> AlphaPowerLaw {
        assert!(vth > 0.0 && vth < vdd, "vth must lie inside (0, vdd)");
        assert!(alpha >= 1.0, "alpha must be >= 1");
        AlphaPowerLaw {
            vth,
            alpha,
            vd0,
            vdd,
            full: (vdd - vth).powf(alpha),
        }
    }

    /// Threshold voltage (V).
    pub fn vth(&self) -> f64 {
        self.vth
    }

    /// Velocity-saturation index `α` (2 = long channel, →1 = fully
    /// velocity-saturated).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Saturation-voltage coefficient: `Vdsat = vd0·(Vgs−Vth)^(α/2)`.
    pub fn vd0(&self) -> f64 {
        self.vd0
    }

    /// Supply voltage the normalization refers to.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Saturation current factor at gate overdrive `vgs` (before vds
    /// shaping), normalized to the factor at `vgs = vdd`.
    fn sat_factor(&self, vgs: f64) -> f64 {
        let vov = vgs - self.vth;
        if vov <= 0.0 {
            return 0.0;
        }
        vov.powf(self.alpha) / self.full
    }

    /// Saturation drain voltage at the given gate voltage.
    pub fn vdsat(&self, vgs: f64) -> f64 {
        let vov = (vgs - self.vth).max(0.0);
        self.vd0 * vov.powf(self.alpha / 2.0)
    }

    /// Normalized drain current `id(vgs, vds)`; negative `vds` is handled
    /// by source/drain symmetry (`id(vgs, -v) = -id(vgs - (-v)·0 …)` is the
    /// caller's concern — this surface requires `vds >= 0`).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `vds` is negative.
    pub fn id(&self, vgs: f64, vds: f64) -> f64 {
        debug_assert!(vds >= -1e-12, "alpha-power surface needs vds >= 0");
        let sat = self.sat_factor(vgs);
        if sat == 0.0 {
            return 0.0;
        }
        let vdsat = self.vdsat(vgs);
        if vds >= vdsat || vdsat == 0.0 {
            sat
        } else {
            let v = vds / vdsat;
            sat * (2.0 - v) * v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AlphaPowerLaw {
        AlphaPowerLaw::new(0.22, 1.25, 0.8, 1.0)
    }

    #[test]
    fn normalized_on_current() {
        assert!((model().id(1.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_below_threshold() {
        let m = model();
        assert_eq!(m.id(0.0, 1.0), 0.0);
        assert_eq!(m.id(0.22, 0.5), 0.0);
    }

    #[test]
    fn monotone_in_vgs_and_vds() {
        let m = model();
        let mut prev = -1.0;
        for i in 0..=20 {
            let vgs = i as f64 / 20.0;
            let id = m.id(vgs, 1.0);
            assert!(id >= prev, "not monotone in vgs at {vgs}");
            prev = id;
        }
        let mut prev = -1.0;
        for i in 0..=20 {
            let vds = i as f64 / 20.0;
            let id = m.id(1.0, vds);
            assert!(id >= prev - 1e-12, "not monotone in vds at {vds}");
            prev = id;
        }
    }

    #[test]
    fn continuous_at_vdsat() {
        let m = model();
        let vdsat = m.vdsat(1.0);
        let below = m.id(1.0, vdsat - 1e-9);
        let above = m.id(1.0, vdsat + 1e-9);
        assert!((below - above).abs() < 1e-6);
        // First derivative in vds approaches zero from the triode side.
        let d = (m.id(1.0, vdsat - 1e-6) - m.id(1.0, vdsat - 2e-6)) / 1e-6;
        assert!(d.abs() < 1e-2, "triode slope {d} not flattening at vdsat");
    }

    #[test]
    fn triode_region_resistive() {
        let m = model();
        // Deep triode: approximately linear in vds.
        let i1 = m.id(1.0, 0.01);
        let i2 = m.id(1.0, 0.02);
        assert!((i2 / i1 - 2.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "vth")]
    fn invalid_vth_rejected() {
        let _ = AlphaPowerLaw::new(1.5, 1.25, 0.8, 1.0);
    }
}
