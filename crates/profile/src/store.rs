//! Saving and loading profiles as durable artifacts.
//!
//! The paper's workflow is offline: run the instrumented program, persist
//! the profile, then optimize a fresh build against it. A profile file is
//! one `pdo-snap` frame (magic, version, length, XXH64 checksum) around
//! [`Profile`]'s `Codec` table — the same framing, atomic write and typed
//! errors as a server image, so a torn or bit-flipped file never loads.
//! The human-readable view of a profile is [`crate::EventGraph::to_dot`].

use crate::Profile;
use pdo_snap::SnapshotError;
use std::path::Path;

/// Writes `profile` to `path` atomically (temp file, sync, rename, sync
/// of the parent directory).
///
/// # Errors
///
/// [`SnapshotError::Io`] on filesystem failure.
pub fn save_profile(profile: &Profile, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    pdo_snap::write_atomic(path.as_ref(), &pdo_snap::encode(profile))
}

/// Reads a profile previously written by [`save_profile`].
///
/// # Errors
///
/// [`SnapshotError::Io`] on filesystem failure; any other
/// [`SnapshotError`] for a file that is not an intact profile frame.
pub fn load_profile(path: impl AsRef<Path>) -> Result<Profile, SnapshotError> {
    pdo_snap::decode(&pdo_snap::read(path.as_ref())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeData, EventGraph};
    use crate::handlers::{HandlerGraph, HandlerSeq, NestedRaise};
    use pdo_ir::{EventId, FuncId};

    fn sample_profile() -> Profile {
        let mut g = EventGraph::new();
        g.nodes.insert(EventId(0), 5);
        g.edges.insert(
            (EventId(0), EventId(0)),
            EdgeData {
                weight: 4,
                sync: 4,
                asynchronous: 0,
            },
        );
        let mut h = HandlerGraph::new();
        h.sequences.insert(
            EventId(0),
            vec![HandlerSeq {
                handlers: vec![FuncId(3), FuncId(9)],
                count: 5,
            }],
        );
        h.nested.insert(
            NestedRaise {
                parent_event: EventId(0),
                handler: FuncId(3),
                child_event: EventId(1),
            },
            2,
        );
        Profile {
            event_graph: g,
            handler_graph: h,
            threshold: 3,
        }
    }

    #[test]
    fn roundtrip_via_tempfile() {
        let p = sample_profile();
        let path =
            std::env::temp_dir().join(format!("pdo-profile-test-{}.pdosnap", std::process::id()));
        save_profile(&p, &path).unwrap();
        let back = load_profile(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(p, back);
    }

    #[test]
    fn profile_codec_survives_the_hostile_sweep() {
        pdo_snap::hostile::check(&sample_profile());
        pdo_snap::hostile::check(&Profile::default());
    }

    #[test]
    fn load_missing_file_errors() {
        let err = load_profile("/nonexistent/definitely/missing.pdosnap").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "got {err}");
    }
}
