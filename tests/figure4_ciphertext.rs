//! Figure 4 of the paper, reenacted: "Block insertion on ciphertext. The
//! client wishes to insert block 41.5, so she appends it and block 42 to
//! the object, then replaces the old block 42 with a block pointing to the
//! two appended blocks. The server learns nothing about the contents of
//! any of the blocks."

use oceanstore::update::object::{Block, DataObject};
use oceanstore::update::ops::{self, ObjectKeys};
use oceanstore::update::update::apply;
use oceanstore::update::Update;

#[test]
fn figure4_insert_on_ciphertext() {
    let keys = ObjectKeys::from_seed(b"figure-4");
    let mut object = DataObject::new();

    // The figure's starting state: blocks 41, 42, 43.
    let init = ops::initial_write(&keys, b"fig4", &[b"block 41", b"block 42", b"block 43"], &[]);
    assert!(apply(&mut object, &init).is_committed());

    // The client-side insert operation of the figure.
    let actions = ops::insert_after_op(&keys, &object, 0, b"block 41.5");
    // Shape check: two appends (41.5 and the re-encrypted old 42) plus one
    // index-block replacement.
    assert_eq!(actions.len(), 3);
    assert!(matches!(actions[0], oceanstore::update::Action::Append { .. }));
    assert!(matches!(actions[1], oceanstore::update::Action::Append { .. }));
    assert!(matches!(
        actions[2],
        oceanstore::update::Action::ReplaceWithIndex { position: 1, .. }
    ));
    assert!(apply(&mut object, &Update::unconditional(actions)).is_committed());

    // The logical sequence now reads 41, 41.5, 42, 43.
    let content = ops::read_object(&keys, object.current()).unwrap();
    assert_eq!(
        content,
        vec![
            b"block 41".to_vec(),
            b"block 41.5".to_vec(),
            b"block 42".to_vec(),
            b"block 43".to_vec(),
        ]
    );

    // "The server learns nothing about the contents of any of the blocks":
    // every data block stored server-side is ciphertext with no plaintext
    // substring leakage.
    for block in &object.current().blocks {
        if let Block::Data(ct) = block {
            assert!(!ct.windows(5).any(|w| w == b"block"), "plaintext leaked to the server");
        }
    }

    // And the previous version is still intact (versioning, §2).
    let v1 = object.version(1).expect("retained");
    let old = ops::read_object(&keys, &v1).unwrap();
    assert_eq!(old, vec![b"block 41".to_vec(), b"block 42".to_vec(), b"block 43".to_vec()]);
}

#[test]
fn figure4_delete_uses_empty_pointer_block() {
    // "To delete, one replaces the block in question with an empty pointer
    // block."
    let keys = ObjectKeys::from_seed(b"figure-4-delete");
    let mut object = DataObject::new();
    apply(&mut object, &ops::initial_write(&keys, b"d", &[b"a", b"b", b"c"], &[]));
    let del = Update::unconditional(vec![oceanstore::update::Action::DeleteBlock { position: 1 }]);
    assert!(apply(&mut object, &del).is_committed());
    // The slot holds an empty index block; the logical read skips it.
    let v = object.current();
    assert!(matches!(&v.blocks[1], Block::Index(p) if p.is_empty()));
    assert_eq!(
        ops::read_object(&keys, v).unwrap(),
        vec![b"a".to_vec(), b"c".to_vec()]
    );
}
