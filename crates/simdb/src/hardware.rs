//! Hardware configurations of the cloud database instances (Table 1).
//!
//! The paper's adaptability experiments (Figs 10–12) vary only memory size
//! and disk capacity; Section 5.3.2 additionally mentions SSD and NVM media.

/// Storage media type, scaling base I/O latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaType {
    /// Spinning disk — the paper's default cloud volumes.
    Hdd,
    /// Solid-state drive (§5.3.2).
    Ssd,
    /// Non-volatile memory (§5.3.2).
    Nvm,
}

impl MediaType {
    /// Base random-read latency in simulated microseconds.
    pub fn read_latency_us(self) -> f64 {
        match self {
            MediaType::Hdd => 6000.0,
            MediaType::Ssd => 120.0,
            MediaType::Nvm => 15.0,
        }
    }

    /// Base write latency in simulated microseconds.
    pub fn write_latency_us(self) -> f64 {
        match self {
            MediaType::Hdd => 4000.0,
            MediaType::Ssd => 90.0,
            MediaType::Nvm => 10.0,
        }
    }

    /// Cost of a durable flush (fsync) in simulated microseconds.
    pub fn fsync_latency_us(self) -> f64 {
        match self {
            MediaType::Hdd => 8000.0,
            MediaType::Ssd => 400.0,
            MediaType::Nvm => 30.0,
        }
    }
}

/// Hardware configuration of a database instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareConfig {
    /// Physical memory in GiB.
    pub ram_gb: u32,
    /// Disk capacity in GiB.
    pub disk_gb: u32,
    /// Storage media.
    pub media: MediaType,
    /// CPU core count (the paper's test servers have 12 cores).
    pub cpu_cores: u32,
}

impl HardwareConfig {
    /// Creates a custom hardware configuration.
    pub fn new(ram_gb: u32, disk_gb: u32, media: MediaType, cpu_cores: u32) -> Self {
        Self { ram_gb, disk_gb, media, cpu_cores }
    }

    /// RAM in bytes.
    pub fn ram_bytes(&self) -> u64 {
        u64::from(self.ram_gb) * (1 << 30)
    }

    /// Disk capacity in bytes.
    pub fn disk_bytes(&self) -> u64 {
        u64::from(self.disk_gb) * (1 << 30)
    }

    /// CDB-A: 8 GB RAM, 100 GB disk (Table 1).
    pub fn cdb_a() -> Self {
        Self::new(8, 100, MediaType::Ssd, 12)
    }

    /// CDB-B: 12 GB RAM, 100 GB disk (Table 1).
    pub fn cdb_b() -> Self {
        Self::new(12, 100, MediaType::Ssd, 12)
    }

    /// CDB-C: 12 GB RAM, 200 GB disk (Table 1).
    pub fn cdb_c() -> Self {
        Self::new(12, 200, MediaType::Ssd, 12)
    }

    /// CDB-D: 16 GB RAM, 200 GB disk (Table 1).
    pub fn cdb_d() -> Self {
        Self::new(16, 200, MediaType::Ssd, 12)
    }

    /// CDB-E: 32 GB RAM, 300 GB disk (Table 1).
    pub fn cdb_e() -> Self {
        Self::new(32, 300, MediaType::Ssd, 12)
    }

    /// CDB-X1: variable memory (4/12/32/64/128 GB), 100 GB disk (Table 1).
    pub fn cdb_x1(ram_gb: u32) -> Self {
        assert!(
            [4, 12, 32, 64, 128].contains(&ram_gb),
            "CDB-X1 memory must be one of 4/12/32/64/128 GB, got {ram_gb}"
        );
        Self::new(ram_gb, 100, MediaType::Ssd, 12)
    }

    /// CDB-X2: 12 GB memory, variable disk (32/64/100/256/512 GB) (Table 1).
    pub fn cdb_x2(disk_gb: u32) -> Self {
        assert!(
            [32, 64, 100, 256, 512].contains(&disk_gb),
            "CDB-X2 disk must be one of 32/64/100/256/512 GB, got {disk_gb}"
        );
        Self::new(12, disk_gb, MediaType::Ssd, 12)
    }
}

impl Default for HardwareConfig {
    fn default() -> Self {
        Self::cdb_a()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_instances() {
        assert_eq!(HardwareConfig::cdb_a().ram_gb, 8);
        assert_eq!(HardwareConfig::cdb_a().disk_gb, 100);
        assert_eq!(HardwareConfig::cdb_e().ram_gb, 32);
        assert_eq!(HardwareConfig::cdb_e().disk_gb, 300);
        assert_eq!(HardwareConfig::cdb_x1(64).ram_gb, 64);
        assert_eq!(HardwareConfig::cdb_x2(512).disk_gb, 512);
    }

    #[test]
    #[should_panic(expected = "CDB-X1 memory")]
    fn x1_rejects_off_menu_memory() {
        let _ = HardwareConfig::cdb_x1(16);
    }

    #[test]
    fn media_latency_ordering() {
        assert!(MediaType::Hdd.read_latency_us() > MediaType::Ssd.read_latency_us());
        assert!(MediaType::Ssd.read_latency_us() > MediaType::Nvm.read_latency_us());
        assert!(MediaType::Hdd.fsync_latency_us() > MediaType::Nvm.fsync_latency_us());
    }

    #[test]
    fn byte_conversions() {
        assert_eq!(HardwareConfig::cdb_a().ram_bytes(), 8 * (1 << 30));
        assert_eq!(HardwareConfig::cdb_a().disk_bytes(), 100 * (1 << 30));
    }
}
