//! Workload shapes shared by the load drivers: the Zipf popularity law
//! over object ranks that the benchmark's open and closed loops and the
//! open-loop tests (`crates/chaos/tests/open_loop.rs`) draw objects from.

pub mod zipf;
