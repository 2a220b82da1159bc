//! Workload selection: the six benchmark workloads of §5.

use crate::sysbench::{SysbenchMode, SysbenchWorkload};
use crate::tpcc::TpccWorkload;
use crate::tpch::TpchWorkload;
use crate::ycsb::{YcsbMix, YcsbWorkload};
use crate::Workload;

/// The six workloads the paper evaluates (§5, "Workload").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Sysbench read-only.
    SysbenchRo,
    /// Sysbench write-only.
    SysbenchWo,
    /// Sysbench read-write.
    SysbenchRw,
    /// TPC-C (OLTP).
    TpcC,
    /// TPC-H (OLAP).
    TpcH,
    /// YCSB (paper default mix: workload A).
    Ycsb,
}

impl WorkloadKind {
    /// All six kinds, in the paper's reporting order.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::SysbenchRw,
        WorkloadKind::SysbenchRo,
        WorkloadKind::SysbenchWo,
        WorkloadKind::TpcC,
        WorkloadKind::TpcH,
        WorkloadKind::Ycsb,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::SysbenchRo => "RO",
            WorkloadKind::SysbenchWo => "WO",
            WorkloadKind::SysbenchRw => "RW",
            WorkloadKind::TpcC => "TPC-C",
            WorkloadKind::TpcH => "TPC-H",
            WorkloadKind::Ycsb => "YCSB",
        }
    }
}

impl std::str::FromStr for WorkloadKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sysbench-ro" | "ro" => Ok(WorkloadKind::SysbenchRo),
            "sysbench-wo" | "wo" => Ok(WorkloadKind::SysbenchWo),
            "sysbench-rw" | "rw" => Ok(WorkloadKind::SysbenchRw),
            "tpcc" | "tpc-c" => Ok(WorkloadKind::TpcC),
            "tpch" | "tpc-h" => Ok(WorkloadKind::TpcH),
            "ycsb" => Ok(WorkloadKind::Ycsb),
            other => Err(format!(
                "unknown workload '{other}' (expected rw/ro/wo/tpcc/tpch/ycsb)"
            )),
        }
    }
}

/// Builds a workload generator at the given data scale (1.0 = the paper's
/// dataset sizes; experiments on one machine use smaller scales — the
/// *ratios* between dataset and buffer pool are what matter and those are
/// preserved by scaling hardware in step via [`scaled_hardware`]).
pub fn build_workload(kind: WorkloadKind, scale: f64) -> Box<dyn Workload> {
    match kind {
        WorkloadKind::SysbenchRo => Box::new(SysbenchWorkload::new(SysbenchMode::ReadOnly, scale)),
        WorkloadKind::SysbenchWo => Box::new(SysbenchWorkload::new(SysbenchMode::WriteOnly, scale)),
        WorkloadKind::SysbenchRw => Box::new(SysbenchWorkload::new(SysbenchMode::ReadWrite, scale)),
        WorkloadKind::TpcC => Box::new(TpccWorkload::new(scale)),
        WorkloadKind::TpcH => Box::new(TpchWorkload::new(scale)),
        WorkloadKind::Ycsb => Box::new(YcsbWorkload::new(YcsbMix::A, scale)),
    }
}

/// Scales a hardware profile's memory and disk by the same factor as the
/// dataset, preserving the data:RAM ratio that drives buffer-pool dynamics.
/// CPU cores are left unchanged (the paper's servers are fixed 12-core).
pub fn scaled_hardware(hw: &simdb::HardwareConfig, scale: f64) -> simdb::HardwareConfig {
    simdb::HardwareConfig::new(
        ((f64::from(hw.ram_gb) * scale).round() as u32).max(1),
        ((f64::from(hw.disk_gb) * scale).round() as u32).max(1),
        hw.media,
        hw.cpu_cores,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdb::{Engine, EngineFlavor, HardwareConfig};

    #[test]
    fn all_six_workloads_build_and_setup() {
        for kind in WorkloadKind::ALL {
            let mut e = Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), 1);
            let mut wl = build_workload(kind, 0.002);
            wl.setup(&mut e);
            let mut rng = rand::SeedableRng::seed_from_u64(1);
            let txns = wl.window(10, &mut rng);
            assert_eq!(txns.len(), 10, "{kind:?}");
            assert!(wl.default_clients() > 0);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            WorkloadKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn scaled_hardware_preserves_cores_and_media() {
        let hw = HardwareConfig::cdb_a();
        let s = scaled_hardware(&hw, 0.25);
        assert_eq!(s.ram_gb, 2);
        assert_eq!(s.disk_gb, 25);
        assert_eq!(s.cpu_cores, hw.cpu_cores);
        assert_eq!(s.media, hw.media);
    }

    #[test]
    fn scaled_hardware_floors_at_one() {
        let hw = HardwareConfig::cdb_a();
        let s = scaled_hardware(&hw, 0.0001);
        assert_eq!(s.ram_gb, 1);
        assert_eq!(s.disk_gb, 1);
    }

    #[test]
    fn kind_parses_from_str() {
        assert_eq!("rw".parse::<WorkloadKind>().unwrap(), WorkloadKind::SysbenchRw);
        assert_eq!("TPC-C".parse::<WorkloadKind>().unwrap(), WorkloadKind::TpcC);
        assert_eq!("ycsb".parse::<WorkloadKind>().unwrap(), WorkloadKind::Ycsb);
        assert!("nope".parse::<WorkloadKind>().is_err());
    }
}
