//! Read-only web gateway (§4.6, §5).
//!
//! "Initially, OceanStore will communicate with applications through a
//! UNIX file system interface and a read-only proxy for the World Wide
//! Web." The gateway maps URL paths onto a mounted file system and caches
//! responses with a TTL — stale-but-fast semantics for public content.

use std::collections::HashMap;

use oceanstore_sim::{SimDuration, SimTime};

use crate::facade::fs::{FsError, FsFacade};
use crate::system::OceanStore;

/// A caching, read-only gateway over one mounted file system.
pub struct WebGateway {
    ttl: SimDuration,
    cache: HashMap<String, (Vec<u8>, SimTime)>,
    hits: u64,
    misses: u64,
}

impl WebGateway {
    /// Creates a gateway whose cache entries live for `ttl` of simulated
    /// time.
    pub fn new(ttl: SimDuration) -> Self {
        WebGateway { ttl, cache: HashMap::new(), hits: 0, misses: 0 }
    }

    /// Serves `GET path`, from cache when fresh.
    ///
    /// # Errors
    ///
    /// Propagates file-system resolution failures on cache misses.
    pub fn get(
        &mut self,
        ocean: &mut OceanStore,
        fs: &mut FsFacade,
        path: &str,
    ) -> Result<Vec<u8>, FsError> {
        let now = ocean.sim().now();
        if let Some((body, fetched_at)) = self.cache.get(path) {
            if now.saturating_since(*fetched_at) < self.ttl {
                self.hits += 1;
                return Ok(body.clone());
            }
        }
        self.misses += 1;
        let body = fs.read_file(ocean, path)?;
        self.cache.insert(path.to_string(), (body.clone(), now));
        Ok(body)
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (backend reads) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}
