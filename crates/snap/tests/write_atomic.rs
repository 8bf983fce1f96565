//! `write_atomic` on a bare relative file name, whose parent is the empty
//! path: the directory it syncs after the rename is the working directory.
//! This binary holds exactly one test because it changes the process's
//! working directory, which every test thread shares.

use pdo_snap::{decode, encode, read, write_atomic};
use std::path::Path;

#[test]
fn a_bare_file_name_persists_in_the_working_directory_and_decodes() {
    let dir = std::env::temp_dir().join(format!("pdo-snap-bare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_current_dir(&dir).unwrap();

    let value: Vec<(u64, String)> = vec![(1, "one".into()), (2, "two".into())];
    let name = Path::new("image.pdosnap");
    assert_eq!(name.parent(), Some(Path::new("")));
    write_atomic(name, &encode(&value)).unwrap();

    assert_eq!(
        decode::<Vec<(u64, String)>>(&read(name).unwrap()).unwrap(),
        value
    );
    assert_eq!(
        decode::<Vec<(u64, String)>>(&read(&dir.join(name)).unwrap()).unwrap(),
        value
    );
    assert!(!dir.join("image.pdosnap.tmp").exists());

    std::env::set_current_dir(std::env::temp_dir()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
