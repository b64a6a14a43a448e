//! The assembled first-order process model.
//!
//! [`ProcessModel`] combines the variation budgets, the spatial grid, the
//! buffer library and the source-id layout, and produces the canonical
//! forms of eq. (23)–(24) for any buffer instance:
//!
//! ```text
//! C_b,t = C_b0 + α·X_dev + Σ γ_i·Y_i + ξ·G
//! T_b,t = T_b0 + β·X_dev + Σ θ_i·Y_i + η·G
//! ```
//!
//! where `X_dev` is the instance's private random source, the `Y_i` are
//! the spatial region sources weighted by the Gaussian taper, and `G` is
//! the shared inter-die source. The [`VariationMode`] selects which terms
//! exist: `Nominal` (the paper's **NOM**), `DieToDie` (**D2D**: random +
//! inter-die) or `WithinDie` (**WID**: everything).

use crate::library::{BufferLibrary, BufferType, BufferTypeId};
use crate::sources::SourceLayout;
use crate::spatial::{SpatialKind, SpatialModel};
use varbuf_rctree::elmore::BufferValues;
use varbuf_rctree::geom::{BoundingBox, Point};
use varbuf_rctree::NodeId;
use varbuf_stats::mc::SampleVector;
use varbuf_stats::CanonicalForm;

/// Per-category standard-deviation budgets, as fractions of the nominal
/// value (the paper budgets 5% each, Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationBudgets {
    /// Random per-device variation σ, fraction of nominal.
    pub random: f64,
    /// Inter-die variation σ, fraction of nominal.
    pub inter_die: f64,
    /// Intra-die (spatial) variation σ, fraction of nominal.
    pub intra_die: f64,
    /// Amplitude of the *systematic* intra-die pattern (lens-distortion
    /// radial bowl / stepper SW→NE ramp, Section 3.2 of the paper) as a
    /// fraction of nominal. Device nominals are shifted by
    /// `systematic · pattern(location)` with `pattern ∈ [-1, 1]`; only a
    /// within-die-aware optimizer sees the shift, while the silicon
    /// always has it.
    pub systematic: f64,
}

impl VariationBudgets {
    /// The paper's 5%/5%/5% random budgets, plus an 8% systematic
    /// intra-die amplitude.
    #[must_use]
    pub fn paper_5pct() -> Self {
        Self {
            random: 0.05,
            inter_die: 0.05,
            intra_die: 0.05,
            systematic: 0.08,
        }
    }

    /// All categories (including the systematic pattern) set to zero —
    /// useful for checking that the statistical machinery degenerates to
    /// the deterministic one.
    #[must_use]
    pub fn zero() -> Self {
        Self {
            random: 0.0,
            inter_die: 0.0,
            intra_die: 0.0,
            systematic: 0.0,
        }
    }
}

impl Default for VariationBudgets {
    fn default() -> Self {
        Self::paper_5pct()
    }
}

/// Which variation categories an optimization run models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariationMode {
    /// No variation at all — the deterministic baseline (**NOM**).
    Nominal,
    /// Random device variation + inter-die variation (**D2D**).
    DieToDie,
    /// Everything including spatially correlated intra-die variation
    /// (**WID**).
    WithinDie,
}

impl VariationMode {
    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            VariationMode::Nominal => "NOM",
            VariationMode::DieToDie => "D2D",
            VariationMode::WithinDie => "WID",
        }
    }
}

/// The assembled process model for one die.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessModel {
    budgets: VariationBudgets,
    spatial: SpatialModel,
    layout: SourceLayout,
    library: BufferLibrary,
}

impl ProcessModel {
    /// Builds a model over a die bounding box.
    #[must_use]
    pub fn new(
        die: BoundingBox,
        kind: SpatialKind,
        budgets: VariationBudgets,
        library: BufferLibrary,
    ) -> Self {
        let spatial = SpatialModel::paper_defaults(die, kind);
        let layout = SourceLayout::new(spatial.region_count(), library.len());
        Self {
            budgets,
            spatial,
            layout,
            library,
        }
    }

    /// The paper's 5%/5%/5% budgets with the default 65 nm library.
    #[must_use]
    pub fn paper_defaults(die: BoundingBox, kind: SpatialKind) -> Self {
        Self::new(
            die,
            kind,
            VariationBudgets::paper_5pct(),
            BufferLibrary::default_65nm(),
        )
    }

    /// The buffer library.
    #[must_use]
    pub fn library(&self) -> &BufferLibrary {
        &self.library
    }

    /// The source-id layout.
    #[must_use]
    pub fn layout(&self) -> SourceLayout {
        self.layout
    }

    /// The spatial grid.
    #[must_use]
    pub fn spatial(&self) -> &SpatialModel {
        &self.spatial
    }

    /// The budgets.
    #[must_use]
    pub fn budgets(&self) -> VariationBudgets {
        self.budgets
    }

    /// Canonical form of the input capacitance `C_b,t` of buffer type `ty`
    /// instantiated at candidate `node` located at `loc` (eq. (23)).
    #[must_use]
    pub fn buffer_cap_form(
        &self,
        ty: BufferTypeId,
        node: NodeId,
        loc: Point,
        mode: VariationMode,
    ) -> CanonicalForm {
        let t = self.library.get(ty);
        self.device_form((t.capacitance, t.cap_sensitivity), ty, node, loc, mode)
    }

    /// Canonical form of the intrinsic delay `T_b,t` (eq. (24)).
    #[must_use]
    pub fn buffer_delay_form(
        &self,
        ty: BufferTypeId,
        node: NodeId,
        loc: Point,
        mode: VariationMode,
    ) -> CanonicalForm {
        let t = self.library.get(ty);
        self.device_form(
            (t.intrinsic_delay, t.delay_sensitivity),
            ty,
            node,
            loc,
            mode,
        )
    }

    /// The deterministic output resistance `R_b` of `ty`.
    #[must_use]
    pub fn buffer_resistance(&self, ty: BufferTypeId) -> f64 {
        self.library.get(ty).resistance
    }

    /// The same model with device sources moved to net `net_index`'s id
    /// block — required when optimizing several nets of one design so
    /// their (node-id-keyed) random device sources do not collide while
    /// the global and spatial sources stay shared. See
    /// [`SourceLayout::for_net`].
    #[must_use]
    pub fn for_net(&self, net_index: u32) -> Self {
        let mut out = self.clone();
        out.layout = self.layout.for_net(net_index);
        out
    }

    /// The relative systematic shift of device nominals at `loc`
    /// (`budgets.systematic · pattern(loc)`), which only a
    /// within-die-aware optimizer models but the silicon always has.
    #[must_use]
    pub fn systematic_shift(&self, loc: Point) -> f64 {
        self.budgets.systematic * self.spatial.systematic_pattern(loc)
    }

    /// Overwrites `forms` with the `(C_b, T_b)` canonical-form pair of
    /// every library type at candidate `node` located at `loc`, indexed
    /// by buffer-type id: bitwise the forms
    /// [`buffer_cap_form`](Self::buffer_cap_form) and
    /// [`buffer_delay_form`](Self::buffer_delay_form) return, but with one
    /// taper scan (into the caller's `weights` scratch) and one systematic
    /// shift for the whole location instead of one per form. Both buffers
    /// keep their capacity, so a caller that reuses them from candidate
    /// to candidate builds every form without allocating.
    pub fn device_forms_into(
        &self,
        node: NodeId,
        loc: Point,
        mode: VariationMode,
        weights: &mut Vec<(usize, f64)>,
        forms: &mut Vec<(CanonicalForm, CanonicalForm)>,
    ) {
        let scale = self.site_into(loc, mode, weights);
        forms.resize_with(self.library.len(), Default::default);
        for ((ty, t), (cap, delay)) in self.library.iter().zip(forms.iter_mut()) {
            let cap_param = (t.capacitance, t.cap_sensitivity);
            let delay_param = (t.intrinsic_delay, t.delay_sensitivity);
            self.fill_device_form(cap, cap_param, (ty, node), mode, scale, weights);
            self.fill_device_form(delay, delay_param, (ty, node), mode, scale, weights);
        }
    }

    /// One form of [`device_forms_into`](Self::device_forms_into), built
    /// fresh for a single `(nominal, sensitivity)` device parameter.
    fn device_form(
        &self,
        param: (f64, f64),
        ty: BufferTypeId,
        node: NodeId,
        loc: Point,
        mode: VariationMode,
    ) -> CanonicalForm {
        let mut weights = Vec::new();
        let scale = self.site_into(loc, mode, &mut weights);
        let mut form = CanonicalForm::default();
        self.fill_device_form(&mut form, param, (ty, node), mode, scale, &weights);
        form
    }

    /// Prepares one location for [`fill_device_form`](Self::fill_device_form):
    /// under `WithinDie`, fills `weights` with the location's taper
    /// weights and returns its nominal scale `1 + systematic_shift`;
    /// otherwise clears `weights` (the scale is then unused).
    fn site_into(&self, loc: Point, mode: VariationMode, weights: &mut Vec<(usize, f64)>) -> f64 {
        if matches!(mode, VariationMode::WithinDie) {
            self.spatial.weights_into(loc, weights);
            1.0 + self.systematic_shift(loc)
        } else {
            weights.clear();
            1.0
        }
    }

    /// The one copy of the eq. (23)–(24) coefficient arithmetic:
    /// overwrites `out` with the form of the device parameter
    /// `(nominal, sensitivity)` of instance `(ty, node)` at a location
    /// prepared by [`site_into`](Self::site_into).
    ///
    /// Terms go in ascending id order — global (`0`), regions (`1..=R`,
    /// the weight order), device (`>R`) — so `assign_terms` skips its
    /// sort and only drops the zero coefficients a zero budget yields.
    fn fill_device_form(
        &self,
        out: &mut CanonicalForm,
        (nominal, sensitivity): (f64, f64),
        (ty, node): (BufferTypeId, NodeId),
        mode: VariationMode,
        scale: f64,
        weights: &[(usize, f64)],
    ) {
        if matches!(mode, VariationMode::Nominal) {
            out.assign_terms(nominal, []);
            return;
        }
        // Only a WID-aware model sees the systematic intra-die pattern;
        // NOM and D2D optimizers assume the data-sheet nominal everywhere.
        let nominal = if matches!(mode, VariationMode::WithinDie) {
            nominal * scale
        } else {
            nominal
        };
        let base = nominal * sensitivity;
        let spatial = self.budgets.intra_die * base;
        let global = (self.layout.global(), self.budgets.inter_die * base);
        let regions = weights
            .iter()
            .map(|&(region, w)| (self.layout.region(region), spatial * w));
        let device = (self.layout.device(node, ty.0), self.budgets.random * base);
        out.assign_terms(
            nominal,
            std::iter::once(global)
                .chain(regions)
                .chain(std::iter::once(device)),
        );
    }

    /// Concrete [`BufferValues`] for one Monte Carlo realization: the
    /// canonical forms of `ty` at `(node, loc)` evaluated on `sample`.
    #[must_use]
    pub fn buffer_values_at(
        &self,
        ty: BufferTypeId,
        node: NodeId,
        loc: Point,
        mode: VariationMode,
        sample: &SampleVector,
    ) -> BufferValues {
        BufferValues {
            capacitance: sample.eval(&self.buffer_cap_form(ty, node, loc, mode)),
            intrinsic_delay: sample.eval(&self.buffer_delay_form(ty, node, loc, mode)),
            resistance: self.buffer_resistance(ty),
        }
    }

    /// Nominal [`BufferValues`] of `ty` (no variation).
    #[must_use]
    pub fn nominal_buffer_values(&self, ty: BufferTypeId) -> BufferValues {
        let t: &BufferType = self.library.get(ty);
        BufferValues {
            capacitance: t.capacitance,
            intrinsic_delay: t.intrinsic_delay,
            resistance: t.resistance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die(side: f64) -> BoundingBox {
        BoundingBox {
            min: Point::new(0.0, 0.0),
            max: Point::new(side, side),
        }
    }

    fn model(kind: SpatialKind) -> ProcessModel {
        ProcessModel::paper_defaults(die(8000.0), kind)
    }

    #[test]
    fn nominal_mode_is_deterministic() {
        let m = model(SpatialKind::Homogeneous);
        let f = m.buffer_cap_form(
            BufferTypeId(0),
            NodeId(3),
            Point::new(100.0, 100.0),
            VariationMode::Nominal,
        );
        assert_eq!(f.term_count(), 0);
        assert_eq!(f.mean(), m.library().get(BufferTypeId(0)).capacitance);
    }

    #[test]
    fn d2d_has_random_and_global_only() {
        let m = model(SpatialKind::Homogeneous);
        let f = m.buffer_delay_form(
            BufferTypeId(1),
            NodeId(5),
            Point::new(4000.0, 4000.0),
            VariationMode::DieToDie,
        );
        assert_eq!(f.term_count(), 2);
        let nominal = m.library().get(BufferTypeId(1)).intrinsic_delay;
        // σ² = (5%·T)² + (5%·T)².
        let expect_var = 2.0 * (0.05 * nominal) * (0.05 * nominal);
        assert!((f.variance() - expect_var).abs() < 1e-9);
        assert!(f.coeff(m.layout().global()) > 0.0);
    }

    #[test]
    fn wid_adds_spatial_variance() {
        let m = model(SpatialKind::Homogeneous);
        let loc = Point::new(4000.0, 4000.0);
        let d2d = m.buffer_cap_form(BufferTypeId(0), NodeId(1), loc, VariationMode::DieToDie);
        let wid = m.buffer_cap_form(BufferTypeId(0), NodeId(1), loc, VariationMode::WithinDie);
        let nominal = m.library().get(BufferTypeId(0)).capacitance;
        // WID applies the systematic shift to the nominal before budgets.
        let shifted = nominal * (1.0 + m.systematic_shift(loc));
        assert!((wid.mean() - shifted).abs() < 1e-9);
        let expect_wid_var = 3.0 * (0.05 * shifted) * (0.05 * shifted); // rand+global+spatial, scale 1
        assert!((wid.variance() - expect_wid_var).abs() < 1e-9);
        assert!(wid.term_count() > d2d.term_count());
        // D2D remains unshifted.
        assert_eq!(d2d.mean(), nominal);
    }

    #[test]
    fn systematic_pattern_shapes() {
        // Heterogeneous: monotone SW→NE ramp from -amp to +amp.
        let m = model(SpatialKind::Heterogeneous);
        let sw = m.systematic_shift(Point::new(0.0, 0.0));
        let center = m.systematic_shift(Point::new(4000.0, 4000.0));
        let ne = m.systematic_shift(Point::new(8000.0, 8000.0));
        assert!((sw + 0.08).abs() < 1e-9, "SW shift {sw}");
        assert!(center.abs() < 1e-9, "center shift {center}");
        assert!((ne - 0.08).abs() < 1e-9, "NE shift {ne}");
        // Homogeneous: radial bowl, slowest at the corners.
        let h = model(SpatialKind::Homogeneous);
        let c = h.systematic_shift(Point::new(4000.0, 4000.0));
        let corner = h.systematic_shift(Point::new(0.0, 0.0));
        assert!(c < 0.0 && corner > 0.0 && corner.abs() <= 0.08 * 0.5 + 1e-9);
    }

    #[test]
    fn heterogeneous_scales_spatial_with_location() {
        let m = model(SpatialKind::Heterogeneous);
        let sw = m.buffer_cap_form(
            BufferTypeId(0),
            NodeId(1),
            Point::new(100.0, 100.0),
            VariationMode::WithinDie,
        );
        let ne = m.buffer_cap_form(
            BufferTypeId(0),
            NodeId(2),
            Point::new(7900.0, 7900.0),
            VariationMode::WithinDie,
        );
        assert!(
            ne.variance() > sw.variance(),
            "NE must vary more: {} vs {}",
            ne.variance(),
            sw.variance()
        );
    }

    #[test]
    fn same_site_same_type_fully_correlated_random() {
        let m = model(SpatialKind::Homogeneous);
        let loc = Point::new(1000.0, 1000.0);
        let a = m.buffer_cap_form(BufferTypeId(0), NodeId(9), loc, VariationMode::DieToDie);
        let b = m.buffer_cap_form(BufferTypeId(0), NodeId(9), loc, VariationMode::DieToDie);
        assert!((a.correlation(&b) - 1.0).abs() < 1e-12);
        // Different node: only the global source is shared.
        let c = m.buffer_cap_form(BufferTypeId(0), NodeId(10), loc, VariationMode::DieToDie);
        let rho = a.correlation(&c);
        assert!((rho - 0.5).abs() < 1e-9, "expected 1/2, got {rho}");
    }

    #[test]
    fn nearby_instances_correlate_through_regions() {
        let m = model(SpatialKind::Homogeneous);
        let a = m.buffer_cap_form(
            BufferTypeId(0),
            NodeId(1),
            Point::new(4000.0, 4000.0),
            VariationMode::WithinDie,
        );
        let near = m.buffer_cap_form(
            BufferTypeId(0),
            NodeId(2),
            Point::new(4200.0, 4000.0),
            VariationMode::WithinDie,
        );
        let far = m.buffer_cap_form(
            BufferTypeId(0),
            NodeId(3),
            Point::new(7900.0, 100.0),
            VariationMode::WithinDie,
        );
        let rho_near = a.correlation(&near);
        let rho_far = a.correlation(&far);
        assert!(rho_near > rho_far, "{rho_near} !> {rho_far}");
        // Far instances still share the global source, so correlation is
        // bounded below by the inter-die fraction but not by spatial terms.
        assert!(rho_far > 0.0 && rho_far < 0.5);
    }

    #[test]
    fn device_forms_into_matches_per_call_forms_bitwise() {
        use varbuf_rctree::generate::{
            generate_benchmark, generate_htree, BenchmarkSpec, HTreeSpec,
        };
        let bits = |f: &CanonicalForm| -> (u64, Vec<(u32, u64)>) {
            let terms = f.terms().map(|(id, c)| (id.0, c.to_bits())).collect();
            (f.mean().to_bits(), terms)
        };
        let trees = [
            generate_htree(&HTreeSpec::with_levels(4)),
            generate_benchmark(&BenchmarkSpec::random("rand", 24, 7)),
            generate_benchmark(&BenchmarkSpec::random("sub", 6, 3)).subdivided(400.0),
        ];
        // The zero budget exercises the zero-coefficient drop.
        let no_random = VariationBudgets {
            random: 0.0,
            ..VariationBudgets::paper_5pct()
        };
        for tree in &trees {
            // Locations in tree order, then the reverse: a corner site
            // with few taper regions follows one with more, so the
            // scratch is reused dirty in both directions.
            let sites: Vec<(NodeId, Point)> = (0..tree.len())
                .map(|i| NodeId(i as u32))
                .filter(|&id| tree.node(id).is_candidate)
                .map(|id| (id, tree.node(id).location))
                .collect();
            assert!(sites.len() > 4, "{}", tree.name());
            let sites = sites.iter().chain(sites.iter().rev());
            for kind in [SpatialKind::Homogeneous, SpatialKind::Heterogeneous] {
                for budgets in [VariationBudgets::paper_5pct(), no_random] {
                    let m = ProcessModel::new(
                        tree.bounding_box(),
                        kind,
                        budgets,
                        BufferLibrary::default_65nm(),
                    );
                    for mode in [
                        VariationMode::Nominal,
                        VariationMode::DieToDie,
                        VariationMode::WithinDie,
                    ] {
                        let (mut weights, mut forms) = (Vec::new(), Vec::new());
                        for &(node, loc) in sites.clone() {
                            m.device_forms_into(node, loc, mode, &mut weights, &mut forms);
                            assert_eq!(forms.len(), m.library().len());
                            for (ty, _) in m.library().iter() {
                                let (cap, delay) = &forms[ty.0];
                                let want_cap = m.buffer_cap_form(ty, node, loc, mode);
                                let want_delay = m.buffer_delay_form(ty, node, loc, mode);
                                assert_eq!(bits(cap), bits(&want_cap));
                                assert_eq!(bits(delay), bits(&want_delay));
                            }
                        }
                    }
                }
            }
        }
        // The zero budget really dropped the device term.
        let m = ProcessModel::new(
            die(8000.0),
            SpatialKind::Homogeneous,
            no_random,
            BufferLibrary::default_65nm(),
        );
        let f = m.buffer_cap_form(
            BufferTypeId(0),
            NodeId(3),
            Point::new(10.0, 10.0),
            VariationMode::DieToDie,
        );
        assert_eq!(f.term_count(), 1);
    }

    #[test]
    fn mc_values_match_forms() {
        let m = model(SpatialKind::Homogeneous);
        let loc = Point::new(2000.0, 2000.0);
        let mut sample = SampleVector::new();
        sample.set(m.layout().global(), 1.0);
        let v = m.buffer_values_at(
            BufferTypeId(0),
            NodeId(4),
            loc,
            VariationMode::DieToDie,
            &sample,
        );
        let t = m.library().get(BufferTypeId(0));
        // Global at +1σ shifts cap by 5% of nominal.
        assert!((v.capacitance - t.capacitance * 1.05).abs() < 1e-9);
        assert_eq!(v.resistance, t.resistance);
        // Nominal values helper.
        let nv = m.nominal_buffer_values(BufferTypeId(0));
        assert_eq!(nv.capacitance, t.capacitance);
    }
}
