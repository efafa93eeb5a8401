//! Parametric Clos fabric generation.
//!
//! [`build_fabric`] wires a five-layer Meta-style topology (Figure 1 of the
//! paper) from a [`FabricSpec`]:
//!
//! * every pod has one FSW per plane and `racks_per_pod` RSWs, each RSW
//!   connected to every FSW in its pod;
//! * the i-th FSW of every pod connects to every SSW of plane i;
//! * **SSW-N in every plane is connected only to FADU-N in every grid** and
//!   vice versa — the wiring invariant that makes the §3.3 last-router
//!   decommission scenario (drain all SSW-1/FADU-1) well-defined;
//! * every FADU connects to every FAUU in its grid;
//! * every FAUU connects to every backbone (EB) device.
//!
//! [`build_three_tier`] wires the flatter ToR → aggregation → spine fabric
//! used for the paper-scale (10k+ device) experiments: link membership is
//! striped by pod and plane so the builder, the link table and every
//! adjacency index stay O(devices + links) — no layer-pair full mesh and no
//! O(devices²) intermediates ever materialize.

use crate::asn::AsnAllocator;
use crate::device::DeviceId;
use crate::graph::Topology;
use crate::layer::Layer;
use crate::naming::DeviceName;
use serde::{Deserialize, Serialize};

/// Parameters of a Clos fabric.
///
/// The defaults produce a small but fully-featured fabric (260 devices)
/// suitable for unit tests; benches scale the numbers up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricSpec {
    /// Number of pods (each pod: `planes` FSWs + `racks_per_pod` RSWs).
    pub pods: u16,
    /// Number of spine planes; also FSWs per pod.
    pub planes: u16,
    /// SSWs per plane; also FADUs per grid (they pair one-to-one by index).
    pub ssws_per_plane: u16,
    /// RSWs per pod.
    pub racks_per_pod: u16,
    /// Number of fabric-aggregate grids.
    pub grids: u16,
    /// FAUUs per grid.
    pub fauus_per_grid: u16,
    /// Backbone (EB) devices.
    pub backbone_devices: u16,
    /// Capacity of every link, in Gbps.
    pub link_capacity_gbps: f64,
}

impl Default for FabricSpec {
    fn default() -> Self {
        FabricSpec {
            pods: 4,
            planes: 4,
            ssws_per_plane: 4,
            racks_per_pod: 8,
            grids: 2,
            fauus_per_grid: 4,
            backbone_devices: 4,
            link_capacity_gbps: crate::link::Link::DEFAULT_CAPACITY_GBPS,
        }
    }
}

impl FabricSpec {
    /// A minimal spec for fast unit tests (36 devices).
    pub fn tiny() -> Self {
        FabricSpec {
            pods: 2,
            planes: 2,
            ssws_per_plane: 2,
            racks_per_pod: 2,
            grids: 2,
            fauus_per_grid: 2,
            backbone_devices: 2,
            link_capacity_gbps: 100.0,
        }
    }

    /// The large benchmark tier (212 devices): wide enough that a
    /// convergence wave carries hundreds of per-window jobs.
    /// Used by `bench_convergence`'s `large` fabric and the nightly CI tier.
    pub fn large() -> Self {
        FabricSpec {
            pods: 8,
            planes: 4,
            ssws_per_plane: 4,
            racks_per_pod: 16,
            grids: 4,
            fauus_per_grid: 4,
            backbone_devices: 4,
            link_capacity_gbps: crate::link::Link::DEFAULT_CAPACITY_GBPS,
        }
    }

    /// Total device count the spec will produce.
    pub fn total_devices(&self) -> usize {
        let rsw = self.pods as usize * self.racks_per_pod as usize;
        let fsw = self.pods as usize * self.planes as usize;
        let ssw = self.planes as usize * self.ssws_per_plane as usize;
        let fadu = self.grids as usize * self.ssws_per_plane as usize;
        let fauu = self.grids as usize * self.fauus_per_grid as usize;
        rsw + fsw + ssw + fadu + fauu + self.backbone_devices as usize
    }
}

/// Handle to the devices of a built fabric, grouped by layer, in the grouping
/// order used by the builder. Useful for experiments that address e.g. "all
/// SSW-1s" directly.
#[derive(Debug, Clone, Default)]
pub struct FabricIndex {
    /// `rsw[pod][rack]`
    pub rsw: Vec<Vec<DeviceId>>,
    /// `fsw[pod][plane]`
    pub fsw: Vec<Vec<DeviceId>>,
    /// `ssw[plane][n]`
    pub ssw: Vec<Vec<DeviceId>>,
    /// `fadu[grid][n]` — `fadu[g][n]` pairs with `ssw[p][n]` for all p, g.
    pub fadu: Vec<Vec<DeviceId>>,
    /// `fauu[grid][n]`
    pub fauu: Vec<Vec<DeviceId>>,
    /// `backbone[n]`
    pub backbone: Vec<DeviceId>,
}

/// Build a fabric per the spec. Returns the topology plus a structured index
/// of the devices and the ASN allocator (so migrations can allocate more).
pub fn build_fabric(spec: &FabricSpec) -> (Topology, FabricIndex, AsnAllocator) {
    let mut topo = Topology::new();
    let mut asn = AsnAllocator::new();
    let mut idx = FabricIndex::default();
    let cap = spec.link_capacity_gbps;

    // Devices, bottom-up so DeviceIds roughly follow layer order.
    for pod in 0..spec.pods {
        let racks = (0..spec.racks_per_pod)
            .map(|r| {
                topo.add_device(
                    DeviceName::new(Layer::Rsw, pod, r),
                    asn.allocate(Layer::Rsw),
                )
            })
            .collect();
        idx.rsw.push(racks);
    }
    for pod in 0..spec.pods {
        let fsws = (0..spec.planes)
            .map(|p| {
                topo.add_device(
                    DeviceName::new(Layer::Fsw, pod, p),
                    asn.allocate(Layer::Fsw),
                )
            })
            .collect();
        idx.fsw.push(fsws);
    }
    for plane in 0..spec.planes {
        let ssws = (0..spec.ssws_per_plane)
            .map(|n| {
                topo.add_device(
                    DeviceName::new(Layer::Ssw, plane, n),
                    asn.allocate(Layer::Ssw),
                )
            })
            .collect();
        idx.ssw.push(ssws);
    }
    for grid in 0..spec.grids {
        let fadus = (0..spec.ssws_per_plane)
            .map(|n| {
                topo.add_device(
                    DeviceName::new(Layer::Fadu, grid, n),
                    asn.allocate(Layer::Fadu),
                )
            })
            .collect();
        idx.fadu.push(fadus);
    }
    for grid in 0..spec.grids {
        let fauus = (0..spec.fauus_per_grid)
            .map(|n| {
                topo.add_device(
                    DeviceName::new(Layer::Fauu, grid, n),
                    asn.allocate(Layer::Fauu),
                )
            })
            .collect();
        idx.fauu.push(fauus);
    }
    idx.backbone = (0..spec.backbone_devices)
        .map(|n| {
            topo.add_device(
                DeviceName::new(Layer::Backbone, 0, n),
                asn.allocate(Layer::Backbone),
            )
        })
        .collect();

    // RSW <-> FSW: full mesh within a pod.
    for pod in 0..spec.pods as usize {
        for &rsw in &idx.rsw[pod] {
            for &fsw in &idx.fsw[pod] {
                topo.add_link(rsw, fsw, cap);
            }
        }
    }
    // FSW <-> SSW: the plane-i FSW of each pod connects to every SSW in plane i.
    for pod in 0..spec.pods as usize {
        for plane in 0..spec.planes as usize {
            let fsw = idx.fsw[pod][plane];
            for &ssw in &idx.ssw[plane] {
                topo.add_link(fsw, ssw, cap);
            }
        }
    }
    // SSW <-> FADU: SSW-n of every plane connects only to FADU-n of every grid.
    for plane in 0..spec.planes as usize {
        for n in 0..spec.ssws_per_plane as usize {
            let ssw = idx.ssw[plane][n];
            for grid in 0..spec.grids as usize {
                topo.add_link(ssw, idx.fadu[grid][n], cap);
            }
        }
    }
    // FADU <-> FAUU: full mesh within a grid.
    for grid in 0..spec.grids as usize {
        for &fadu in &idx.fadu[grid] {
            for &fauu in &idx.fauu[grid] {
                topo.add_link(fadu, fauu, cap);
            }
        }
    }
    // FAUU <-> EB: full mesh.
    for grid in 0..spec.grids as usize {
        for &fauu in &idx.fauu[grid] {
            for &eb in &idx.backbone {
                topo.add_link(fauu, eb, cap);
            }
        }
    }

    (topo, idx, asn)
}

/// Parameters of a paper-scale three-tier Clos fabric: ToRs (modelled as the
/// RSW layer), pod aggregation switches (FSW layer, one per plane per pod)
/// and spines (SSW layer, grouped by plane), with backbone (EB) originators
/// attached plane-striped above the spines.
///
/// The three-tier shape is what lets the device count reach 10k+ without the
/// link table exploding: every wiring rule below is a stripe, not a mesh, so
/// links grow linearly in devices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreeTierSpec {
    /// Number of pods. Each pod holds `tors_per_pod` ToRs and one
    /// aggregation switch per plane.
    pub pods: u16,
    /// ToRs (rack switches) per pod.
    pub tors_per_pod: u16,
    /// Spine planes; also aggregation switches per pod.
    pub planes: u16,
    /// Spines per plane.
    pub spines_per_plane: u16,
    /// Backbone (EB) devices, striped over the planes (`EB j` uplinks the
    /// spines of plane `j % planes`).
    pub backbone_devices: u16,
    /// Capacity of every link, in Gbps.
    pub link_capacity_gbps: f64,
}

impl ThreeTierSpec {
    /// The `xl` benchmark tier: 10,308 devices (256 pods × 36 ToRs,
    /// 4 aggs/pod, 4 planes × 16 spines, 4 EBs), ≈53k links — the first
    /// tier at the scale where the paper's migration phenomena appear.
    pub fn xl() -> Self {
        ThreeTierSpec {
            pods: 256,
            tors_per_pod: 36,
            planes: 4,
            spines_per_plane: 16,
            backbone_devices: 4,
            link_capacity_gbps: crate::link::Link::DEFAULT_CAPACITY_GBPS,
        }
    }

    /// The `xxl` benchmark tier: 100,420 devices (675 pods × 144 ToRs,
    /// 4 aggs/pod, 4 planes × 128 spines, 8 EBs), ≈735k links — the
    /// paper-scale decade. Each spine aggregates 675 aggregation sessions,
    /// which is the fan-in regime the compressed Adj-RIBs exist for: per
    /// spine prefix, 675 announcements collapse to a handful of canonical
    /// bodies plus 16-byte refs.
    pub fn xxl() -> Self {
        ThreeTierSpec {
            pods: 675,
            tors_per_pod: 144,
            planes: 4,
            spines_per_plane: 128,
            backbone_devices: 8,
            link_capacity_gbps: crate::link::Link::DEFAULT_CAPACITY_GBPS,
        }
    }

    /// The CI-sized scale tier: 2,036 devices (50 pods × 36 ToRs, 4
    /// aggs/pod, 4 planes × 8 spines, 4 EBs). Big enough to exercise the
    /// arena and event-queue machinery, small enough for a debug-build test run
    /// and the perf-smoke memory-budget gate.
    pub fn ci_2k() -> Self {
        ThreeTierSpec {
            pods: 50,
            tors_per_pod: 36,
            planes: 4,
            spines_per_plane: 8,
            backbone_devices: 4,
            link_capacity_gbps: crate::link::Link::DEFAULT_CAPACITY_GBPS,
        }
    }

    /// Total device count the spec will produce.
    pub fn total_devices(&self) -> usize {
        let tor = self.pods as usize * self.tors_per_pod as usize;
        let agg = self.pods as usize * self.planes as usize;
        let spine = self.planes as usize * self.spines_per_plane as usize;
        tor + agg + spine + self.backbone_devices as usize
    }
}

/// Build a three-tier fabric per the spec, reusing the five-layer vocabulary
/// (ToR = RSW, aggregation = FSW, spine = SSW) so RPA layer signatures and
/// the scenario rigs apply unchanged. The returned
/// [`FabricIndex`] fills `rsw`/`fsw`/`ssw`/`backbone` and leaves the
/// `fadu`/`fauu` tiers empty.
pub fn build_three_tier(spec: &ThreeTierSpec) -> (Topology, FabricIndex, AsnAllocator) {
    let mut topo = Topology::new();
    let mut asn = AsnAllocator::new();
    let mut idx = FabricIndex::default();
    let cap = spec.link_capacity_gbps;

    // Devices bottom-up, pod-major, so DeviceIds stay dense in layer order.
    for pod in 0..spec.pods {
        let tors = (0..spec.tors_per_pod)
            .map(|r| {
                topo.add_device(
                    DeviceName::new(Layer::Rsw, pod, r),
                    asn.allocate(Layer::Rsw),
                )
            })
            .collect();
        idx.rsw.push(tors);
    }
    for pod in 0..spec.pods {
        let aggs = (0..spec.planes)
            .map(|p| {
                topo.add_device(
                    DeviceName::new(Layer::Fsw, pod, p),
                    asn.allocate(Layer::Fsw),
                )
            })
            .collect();
        idx.fsw.push(aggs);
    }
    for plane in 0..spec.planes {
        let spines = (0..spec.spines_per_plane)
            .map(|n| {
                topo.add_device(
                    DeviceName::new(Layer::Ssw, plane, n),
                    asn.allocate(Layer::Ssw),
                )
            })
            .collect();
        idx.ssw.push(spines);
    }
    idx.backbone = (0..spec.backbone_devices)
        .map(|n| {
            topo.add_device(
                DeviceName::new(Layer::Backbone, 0, n),
                asn.allocate(Layer::Backbone),
            )
        })
        .collect();

    // ToR <-> agg: every ToR uplinks each of its pod's `planes` aggs.
    for pod in 0..spec.pods as usize {
        for &tor in &idx.rsw[pod] {
            for &agg in &idx.fsw[pod] {
                topo.add_link(tor, agg, cap);
            }
        }
    }
    // Agg <-> spine, plane-striped: the plane-i agg of each pod connects to
    // the spines of plane i only.
    for pod in 0..spec.pods as usize {
        for plane in 0..spec.planes as usize {
            let agg = idx.fsw[pod][plane];
            for &spine in &idx.ssw[plane] {
                topo.add_link(agg, spine, cap);
            }
        }
    }
    // Spine <-> EB, plane-striped: EB j uplinks the spines of plane
    // j % planes, so backbone fan-in stays O(spines), not O(spines × EBs).
    for (j, &eb) in idx.backbone.iter().enumerate() {
        let plane = j % spec.planes.max(1) as usize;
        for &spine in &idx.ssw[plane] {
            topo.add_link(spine, eb, cap);
        }
    }

    (topo, idx, asn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceState;

    /// Number of device ids the index holds.
    fn indexed(idx: &FabricIndex) -> usize {
        let layers = [&idx.rsw, &idx.fsw, &idx.ssw, &idx.fadu, &idx.fauu];
        let grouped: usize = layers.iter().flat_map(|l| l.iter()).map(Vec::len).sum();
        grouped + idx.backbone.len()
    }

    /// Link count the spec produces (each ToR: `planes` uplinks; each agg:
    /// `spines_per_plane` uplinks; each spine: its plane's share of EBs).
    fn total_links(spec: &ThreeTierSpec) -> usize {
        let tor_agg = spec.pods as usize * spec.tors_per_pod as usize * spec.planes as usize;
        let agg_spine = spec.pods as usize * spec.planes as usize * spec.spines_per_plane as usize;
        let spine_eb = spec.backbone_devices as usize * spec.spines_per_plane as usize;
        tor_agg + agg_spine + spine_eb
    }

    #[test]
    fn default_spec_builds_expected_counts() {
        let spec = FabricSpec::default();
        let (topo, idx, _) = build_fabric(&spec);
        assert_eq!(topo.device_count(), spec.total_devices());
        assert_eq!(indexed(&idx), spec.total_devices());
        assert!(topo.is_connected());
    }

    #[test]
    fn tiny_spec_counts() {
        let spec = FabricSpec::tiny();
        // 2*2 rsw + 2*2 fsw + 2*2 ssw + 2*2 fadu + 2*2 fauu + 2 eb = 22
        assert_eq!(spec.total_devices(), 22);
        let (topo, _, _) = build_fabric(&spec);
        assert_eq!(topo.device_count(), 22);
    }

    #[test]
    fn large_spec_counts() {
        let spec = FabricSpec::large();
        // 8*16 rsw + 8*4 fsw + 4*4 ssw + 4*4 fadu + 4*4 fauu + 4 eb = 212
        assert_eq!(spec.total_devices(), 212);
        let (topo, idx, _) = build_fabric(&spec);
        assert_eq!(topo.device_count(), 212);
        assert_eq!(indexed(&idx), 212);
        assert!(topo.is_connected());
    }

    #[test]
    fn ssw_fadu_pairing_invariant_holds() {
        let spec = FabricSpec::default();
        let (topo, idx, _) = build_fabric(&spec);
        // SSW-n connects to FADU-n in *every* grid, and to no other FADU.
        for plane in 0..spec.planes as usize {
            for n in 0..spec.ssws_per_plane as usize {
                let ssw = idx.ssw[plane][n];
                let ups: std::collections::HashSet<DeviceId> =
                    topo.uplinks(ssw).into_iter().map(|(d, _)| d).collect();
                let expected: std::collections::HashSet<DeviceId> =
                    (0..spec.grids as usize).map(|g| idx.fadu[g][n]).collect();
                assert_eq!(ups, expected, "plane {plane} ssw {n}");
            }
        }
    }

    #[test]
    fn fsw_plane_wiring_invariant_holds() {
        let spec = FabricSpec::default();
        let (topo, idx, _) = build_fabric(&spec);
        for pod in 0..spec.pods as usize {
            for plane in 0..spec.planes as usize {
                let fsw = idx.fsw[pod][plane];
                let ups: std::collections::HashSet<DeviceId> =
                    topo.uplinks(fsw).into_iter().map(|(d, _)| d).collect();
                let expected: std::collections::HashSet<DeviceId> =
                    idx.ssw[plane].iter().copied().collect();
                assert_eq!(ups, expected);
            }
        }
    }

    #[test]
    fn every_rack_reaches_backbone() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let rsw = idx.rsw[0][0];
        for &eb in &idx.backbone {
            // rsw -> fsw -> ssw -> fadu -> fauu -> eb = 5 hops
            assert_eq!(topo.hop_distance(rsw, eb), Some(5));
        }
    }

    #[test]
    fn all_devices_start_live() {
        let (topo, _, _) = build_fabric(&FabricSpec::tiny());
        assert!(topo.devices().all(|d| d.state == DeviceState::Live));
    }

    #[test]
    fn asn_allocator_can_extend_after_build() {
        let (_, _, mut asn) = build_fabric(&FabricSpec::tiny());
        let fresh = asn.allocate(Layer::Fadu);
        assert_eq!(crate::asn::tests::layer_of(fresh), Some(Layer::Fadu));
    }

    fn three_tier_toy() -> ThreeTierSpec {
        ThreeTierSpec {
            pods: 3,
            tors_per_pod: 4,
            planes: 2,
            spines_per_plane: 2,
            backbone_devices: 2,
            link_capacity_gbps: 100.0,
        }
    }

    #[test]
    fn three_tier_counts_and_connectivity() {
        let spec = three_tier_toy();
        // 3*4 tor + 3*2 agg + 2*2 spine + 2 eb = 24
        assert_eq!(spec.total_devices(), 24);
        let (topo, idx, _) = build_three_tier(&spec);
        assert_eq!(topo.device_count(), 24);
        assert_eq!(topo.link_count(), total_links(&spec));
        assert_eq!(indexed(&idx), 24);
        assert!(idx.fadu.is_empty() && idx.fauu.is_empty());
        assert!(topo.is_connected());
        // ToR -> agg -> spine -> EB: 3 hops.
        assert_eq!(topo.hop_distance(idx.rsw[0][0], idx.backbone[0]), Some(3));
    }

    #[test]
    fn three_tier_plane_striping_invariant() {
        let spec = three_tier_toy();
        let (topo, idx, _) = build_three_tier(&spec);
        // The plane-i agg of every pod uplinks exactly the plane-i spines.
        for pod in 0..spec.pods as usize {
            for plane in 0..spec.planes as usize {
                let ups: std::collections::HashSet<DeviceId> = topo
                    .uplinks(idx.fsw[pod][plane])
                    .into_iter()
                    .map(|(d, _)| d)
                    .collect();
                let expected: std::collections::HashSet<DeviceId> =
                    idx.ssw[plane].iter().copied().collect();
                assert_eq!(ups, expected, "pod {pod} plane {plane}");
            }
        }
        // EB j uplinks the spines of plane j % planes only (an EB has no
        // layer above it, so its neighbours are its downlinks).
        for (j, &eb) in idx.backbone.iter().enumerate() {
            let downs: std::collections::HashSet<DeviceId> =
                topo.neighbors(eb).into_iter().map(|(d, _)| d).collect();
            let expected: std::collections::HashSet<DeviceId> =
                idx.ssw[j % spec.planes as usize].iter().copied().collect();
            assert_eq!(downs, expected, "eb {j}");
        }
    }

    #[test]
    fn xl_tier_is_paper_scale_with_linear_links() {
        let spec = ThreeTierSpec::xl();
        assert!(spec.total_devices() >= 10_000, "xl must be a 10k+ fabric");
        assert_eq!(spec.total_devices(), 10_308);
        // Links stay linear in devices — ~5.2 links per device, nowhere
        // near any O(n²) mesh.
        assert_eq!(total_links(&spec), 53_312);
        assert!(total_links(&spec) < spec.total_devices() * 6);
    }

    #[test]
    fn xxl_tier_is_the_100k_decade_with_linear_links() {
        let spec = ThreeTierSpec::xxl();
        assert!(
            spec.total_devices() >= 100_000,
            "xxl must be a 100k+ fabric"
        );
        assert_eq!(spec.total_devices(), 100_420);
        // ~7.3 links per device: still linear, an order of magnitude past xl.
        assert_eq!(total_links(&spec), 735_424);
        assert!(total_links(&spec) < spec.total_devices() * 8);
    }

    #[test]
    fn ci_2k_tier_counts() {
        let spec = ThreeTierSpec::ci_2k();
        assert_eq!(spec.total_devices(), 2_036);
        let (topo, idx, _) = build_three_tier(&spec);
        assert_eq!(topo.device_count(), 2_036);
        assert_eq!(topo.link_count(), total_links(&spec));
        assert!(topo.is_connected());
        assert_eq!(idx.rsw.len(), 50);
    }

    #[test]
    fn three_tier_overflowing_legacy_asn_band_uses_extension_range() {
        // 300 pods × 36 ToRs = 10,800 rack switches — past the 10,000-wide
        // legacy RSW band, so the tail must come from the 4-byte extension
        // band with unique ASNs throughout.
        let spec = ThreeTierSpec {
            pods: 300,
            tors_per_pod: 36,
            planes: 2,
            spines_per_plane: 4,
            backbone_devices: 2,
            link_capacity_gbps: 100.0,
        };
        let (topo, _, _) = build_three_tier(&spec);
        let mut asns: Vec<_> = topo.devices().map(|d| d.asn).collect();
        asns.sort_unstable();
        asns.dedup();
        assert_eq!(asns.len(), spec.total_devices(), "ASNs unique fabric-wide");
        let ext = asns.iter().filter(|a| a.0 >= crate::asn::EXT_BASE).count();
        assert_eq!(ext, 10_800 - 10_000, "tail ToRs in the extension band");
        for d in topo.devices() {
            assert_eq!(
                crate::asn::tests::layer_of(d.asn),
                Some(d.name.layer),
                "band still identifies the layer for {}",
                d.name
            );
        }
    }
}
