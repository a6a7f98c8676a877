//! Unix-file-system facade (§4.6).
//!
//! "OceanStore provides a number of legacy facades that implement common
//! APIs, including a Unix file system ..." Paths resolve through directory
//! objects (§4.1); files are ordinary OceanStore objects whose blocks hold
//! the file content. Everything — directories included — is encrypted
//! client-side before it reaches servers.

use std::collections::HashMap;

use oceanstore_naming::directory::{DirEntry, Directory};
use oceanstore_naming::guid::Guid;
use oceanstore_update::ops;
use oceanstore_update::session::{GuaranteeSet, SessionState};
use oceanstore_update::update::Action;
use oceanstore_update::Update;

use crate::system::{CoreError, ObjectRef, OceanStore, UpdateOutcome};

/// File content is chunked into blocks of this many bytes.
const BLOCK_SIZE: usize = 1024;

/// Errors from the file-system facade.
#[derive(Debug)]
pub enum FsError {
    /// Underlying OceanStore failure.
    Core(CoreError),
    /// Path component missing.
    NotFound(String),
    /// Expected a directory, found a file (or vice versa).
    WrongKind(String),
    /// An update aborted (concurrent modification).
    Conflict,
    /// A directory object failed to decode.
    CorruptDirectory,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Core(e) => write!(f, "{e}"),
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::WrongKind(p) => write!(f, "wrong entry kind at {p}"),
            FsError::Conflict => write!(f, "concurrent modification; retry"),
            FsError::CorruptDirectory => write!(f, "directory object corrupt"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<CoreError> for FsError {
    fn from(e: CoreError) -> Self {
        FsError::Core(e)
    }
}

/// A mounted OceanStore file system for one client.
///
/// The mount's root is a client-chosen directory object — "such root
/// directories are only roots with respect to the clients that use them;
/// the system as a whole has no one root" (§4.1).
pub struct FsFacade {
    client_idx: usize,
    root: ObjectRef,
    session: SessionState,
    guarantees: GuaranteeSet,
    /// Object handles for files/dirs we created or resolved.
    handles: HashMap<Guid, ObjectRef>,
}

impl FsFacade {
    /// Mounts a new empty root for `client_idx`.
    pub fn mount(ocean: &mut OceanStore, client_idx: usize, root_name: &str) -> Result<Self, FsError> {
        let root = ocean.create_object(client_idx, root_name);
        let mut fs = FsFacade {
            client_idx,
            root: root.clone(),
            session: SessionState::new(),
            guarantees: GuaranteeSet::all(),
            handles: HashMap::new(),
        };
        fs.handles.insert(root.guid, root.clone());
        // Initialize the root directory object.
        fs.write_directory(ocean, &root, &Directory::new())?;
        Ok(fs)
    }

    /// The root object handle.
    pub fn root(&self) -> &ObjectRef {
        &self.root
    }

    /// Creates a directory at `path`.
    pub fn mkdir(&mut self, ocean: &mut OceanStore, path: &str) -> Result<(), FsError> {
        let (parent_ref, name) = self.resolve_parent(ocean, path)?;
        let dir_obj = ocean.create_object(self.client_idx, &format!("dir:{path}"));
        self.handles.insert(dir_obj.guid, dir_obj.clone());
        self.write_directory(ocean, &dir_obj, &Directory::new())?;
        let mut parent = self.read_directory(ocean, &parent_ref)?;
        parent.bind(name, DirEntry::Directory(dir_obj.guid));
        self.write_directory(ocean, &parent_ref, &parent)
    }

    /// Creates (or truncates) a file at `path` with `content`.
    pub fn write_file(
        &mut self,
        ocean: &mut OceanStore,
        path: &str,
        content: &[u8],
    ) -> Result<(), FsError> {
        let (parent_ref, name) = self.resolve_parent(ocean, path)?;
        let mut parent = self.read_directory(ocean, &parent_ref)?;
        let file_ref = match parent.lookup(&name) {
            Some(DirEntry::Object(g)) => {
                self.handles.get(&g).cloned().ok_or_else(|| FsError::NotFound(path.into()))?
            }
            Some(DirEntry::Directory(_)) => return Err(FsError::WrongKind(path.into())),
            None => {
                let f = ocean.create_object(self.client_idx, &format!("file:{path}"));
                self.handles.insert(f.guid, f.clone());
                parent.bind(name.clone(), DirEntry::Object(f.guid));
                self.write_directory(ocean, &parent_ref, &parent)?;
                f
            }
        };
        self.write_blocks(ocean, &file_ref, content)
    }

    /// Reads a whole file.
    pub fn read_file(&mut self, ocean: &mut OceanStore, path: &str) -> Result<Vec<u8>, FsError> {
        let entry = self.resolve(ocean, path)?;
        let DirEntry::Object(guid) = entry else { return Err(FsError::WrongKind(path.into())) };
        let file_ref =
            self.handles.get(&guid).cloned().ok_or_else(|| FsError::NotFound(path.into()))?;
        let blocks = ocean.read(self.client_idx, &file_ref, &mut self.session, &self.guarantees)?;
        Ok(blocks.concat())
    }

    /// Lists the names bound in the directory at `path` (`"/"` for root).
    pub fn ls(&mut self, ocean: &mut OceanStore, path: &str) -> Result<Vec<String>, FsError> {
        let dir_ref = if path == "/" || path.is_empty() {
            self.root.clone()
        } else {
            let entry = self.resolve(ocean, path)?;
            let DirEntry::Directory(guid) = entry else {
                return Err(FsError::WrongKind(path.into()));
            };
            self.handles.get(&guid).cloned().ok_or_else(|| FsError::NotFound(path.into()))?
        };
        let dir = self.read_directory(ocean, &dir_ref)?;
        Ok(dir.iter().map(|(n, _)| n.to_string()).collect())
    }

    /// Removes a file or (empty checks omitted) directory binding.
    pub fn unlink(&mut self, ocean: &mut OceanStore, path: &str) -> Result<(), FsError> {
        let (parent_ref, name) = self.resolve_parent(ocean, path)?;
        let mut parent = self.read_directory(ocean, &parent_ref)?;
        if parent.unbind(&name).is_none() {
            return Err(FsError::NotFound(path.into()));
        }
        self.write_directory(ocean, &parent_ref, &parent)
    }

    fn split(path: &str) -> Vec<&str> {
        path.split('/').filter(|c| !c.is_empty()).collect()
    }

    fn resolve(&mut self, ocean: &mut OceanStore, path: &str) -> Result<DirEntry, FsError> {
        let comps = Self::split(path);
        if comps.is_empty() {
            return Ok(DirEntry::Directory(self.root.guid));
        }
        let mut current = self.root.clone();
        for (i, comp) in comps.iter().enumerate() {
            let dir = self.read_directory(ocean, &current)?;
            let entry = dir.lookup(comp).ok_or_else(|| FsError::NotFound((*comp).into()))?;
            if i == comps.len() - 1 {
                return Ok(entry);
            }
            match entry {
                DirEntry::Directory(g) => {
                    current = self
                        .handles
                        .get(&g)
                        .cloned()
                        .ok_or_else(|| FsError::NotFound((*comp).into()))?;
                }
                DirEntry::Object(_) => return Err(FsError::WrongKind((*comp).into())),
            }
        }
        unreachable!("loop returns on the last component")
    }

    fn resolve_parent(
        &mut self,
        ocean: &mut OceanStore,
        path: &str,
    ) -> Result<(ObjectRef, String), FsError> {
        let comps = Self::split(path);
        let (last, init) = comps.split_last().ok_or_else(|| FsError::NotFound(path.into()))?;
        let mut current = self.root.clone();
        for comp in init {
            let dir = self.read_directory(ocean, &current)?;
            match dir.lookup(comp) {
                Some(DirEntry::Directory(g)) => {
                    current = self
                        .handles
                        .get(&g)
                        .cloned()
                        .ok_or_else(|| FsError::NotFound((*comp).into()))?;
                }
                Some(DirEntry::Object(_)) => return Err(FsError::WrongKind((*comp).into())),
                None => return Err(FsError::NotFound((*comp).into())),
            }
        }
        Ok((current, (*last).to_string()))
    }

    /// Writes an object's full content as chunked encrypted blocks by
    /// replacing the object body (delete old blocks, append new).
    fn write_blocks(
        &mut self,
        ocean: &mut OceanStore,
        obj: &ObjectRef,
        content: &[u8],
    ) -> Result<(), FsError> {
        // Read current shape to know how many logical blocks to delete.
        let current =
            ocean.read(self.client_idx, obj, &mut self.session, &self.guarantees)?;
        let mut actions: Vec<Action> = (0..current.len())
            .map(|position| Action::DeleteBlock { position })
            .collect();
        // Fresh blocks are appended at slots after the existing physical
        // slots; compute the next physical slot from the secondary view:
        // deletes replace, appends extend, so slot = current slot count.
        let slot_base = self.slot_count(ocean, obj)?;
        let chunks: Vec<&[u8]> = if content.is_empty() {
            Vec::new()
        } else {
            content.chunks(BLOCK_SIZE).collect()
        };
        for (i, chunk) in chunks.iter().enumerate() {
            actions.push(Action::Append {
                ciphertext: ops::encrypt_block(&obj.keys, slot_base + i, chunk),
            });
        }
        let update = Update::unconditional(actions);
        match ocean.update(self.client_idx, obj, &update)? {
            UpdateOutcome::Committed { version } => {
                self.session.note_write(obj.guid, version);
                Ok(())
            }
            UpdateOutcome::Aborted => Err(FsError::Conflict),
        }
    }

    fn slot_count(&mut self, ocean: &mut OceanStore, obj: &ObjectRef) -> Result<usize, FsError> {
        // Count physical slots from any secondary holding the object.
        let dep = ocean.deployment();
        let mut live = dep.secondaries.iter().filter(|&&s| !dep.sim.is_down(s));
        let view = live.find_map(|&s| dep.secondary(s).committed_view(&obj.guid));
        Ok(view.map_or(0, |d| d.current().slot_count()))
    }

    fn read_directory(
        &mut self,
        ocean: &mut OceanStore,
        obj: &ObjectRef,
    ) -> Result<Directory, FsError> {
        let blocks = ocean.read(self.client_idx, obj, &mut self.session, &self.guarantees)?;
        if blocks.is_empty() {
            return Ok(Directory::new());
        }
        decode_directory(&blocks.concat()).ok_or(FsError::CorruptDirectory)
    }

    fn write_directory(
        &mut self,
        ocean: &mut OceanStore,
        obj: &ObjectRef,
        dir: &Directory,
    ) -> Result<(), FsError> {
        let bytes = encode_directory(dir);
        self.write_blocks(ocean, obj, &bytes)
    }
}

/// Serializes a directory (names + entries).
pub fn encode_directory(dir: &Directory) -> Vec<u8> {
    let mut out = Vec::new();
    let entries: Vec<(&str, DirEntry)> = dir.iter().collect();
    out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for (name, entry) in entries {
        out.extend_from_slice(&(name.len() as u32).to_be_bytes());
        out.extend_from_slice(name.as_bytes());
        match entry {
            DirEntry::Object(g) => {
                out.push(0);
                out.extend_from_slice(g.as_bytes());
            }
            DirEntry::Directory(g) => {
                out.push(1);
                out.extend_from_slice(g.as_bytes());
            }
        }
    }
    out
}

/// Deserializes a directory; `None` on corruption.
pub fn decode_directory(bytes: &[u8]) -> Option<Directory> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        let s = bytes.get(*pos..*pos + n)?;
        *pos += n;
        Some(s)
    };
    let count = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
    if count > 1_000_000 {
        return None;
    }
    let mut dir = Directory::new();
    for _ in 0..count {
        let nlen = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let name = String::from_utf8(take(&mut pos, nlen)?.to_vec()).ok()?;
        let kind = take(&mut pos, 1)?[0];
        let guid = Guid::from_bytes(take(&mut pos, 20)?.try_into().ok()?);
        let entry = match kind {
            0 => DirEntry::Object(guid),
            1 => DirEntry::Directory(guid),
            _ => return None,
        };
        dir.bind(name, entry);
    }
    (pos == bytes.len()).then_some(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_codec_roundtrip() {
        let mut d = Directory::new();
        d.bind("mail", DirEntry::Object(Guid::from_label("m")));
        d.bind("projects", DirEntry::Directory(Guid::from_label("p")));
        let enc = encode_directory(&d);
        let dec = decode_directory(&enc).unwrap();
        assert_eq!(dec, d);
    }

    #[test]
    fn directory_codec_rejects_corruption() {
        let mut d = Directory::new();
        d.bind("x", DirEntry::Object(Guid::from_label("x")));
        let enc = encode_directory(&d);
        assert!(decode_directory(&enc).is_some());
        // Layout: entry count at 0, name length at 4, name at 8, entry
        // kind at 9, GUID at 10.
        let corrupt = |at: usize, byte: u8| {
            let mut bad = enc.clone();
            bad[at] = byte;
            decode_directory(&bad)
        };
        assert!(corrupt(4, 0xFF).is_none(), "a name length past the end");
        assert!(corrupt(8, 0xFF).is_none(), "a name that is not UTF-8");
        assert!(corrupt(9, 2).is_none(), "an unknown entry kind");
        let mut trailing = enc.clone();
        trailing.push(0);
        assert!(decode_directory(&trailing).is_none(), "a trailing byte");
        assert!(decode_directory(&enc[..enc.len() - 1]).is_none());
        assert!(decode_directory(&enc[..4]).is_none());
    }

    #[test]
    fn empty_directory_roundtrip() {
        let d = Directory::new();
        assert_eq!(decode_directory(&encode_directory(&d)).unwrap(), d);
    }
}
