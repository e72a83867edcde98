//! The library writes only where its caller points it. Building a codec
//! of every family and running an archive round trip must leave `$HOME`
//! and the system temp dir exactly as they were: no profile, no cache,
//! no per-user directory.
//!
//! One test in its own binary, so the `HOME` and `TMPDIR` it sets are the
//! whole process's environment from the first codec built on.

use std::fs;
use std::path::Path;
use xorslp_ec::{codec_for, Archive, CodecSpec};

fn entries(dir: &Path) -> Vec<String> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn codecs_and_archives_write_only_where_the_caller_points() {
    let root = std::env::temp_dir().join(format!("xorslp_no_home_writes_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let (home, tmp, work) = (root.join("home"), root.join("tmp"), root.join("work"));
    for dir in [&home, &tmp, &work] {
        fs::create_dir_all(dir).unwrap();
    }
    std::env::set_var("HOME", &home);
    std::env::set_var("TMPDIR", &tmp);
    assert_eq!(std::env::temp_dir(), tmp);

    let data: Vec<u8> = (0..100_000u32).map(|i| (i * 131 + i / 7) as u8).collect();
    for (name, n, p) in [
        ("rs", 5, 3),
        ("lrc", 4, 3),
        ("evenodd", 4, 2),
        ("rdp", 4, 2),
    ] {
        let codec = codec_for(&CodecSpec::parse(name, n, p).unwrap()).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> =
            codec.encode(&data).unwrap().into_iter().map(Some).collect();
        shards[0] = None;
        assert_eq!(codec.decode(&shards, data.len()).unwrap(), data, "{name}");
    }

    let input = work.join("input.bin");
    fs::write(&input, &data).unwrap();
    let archive = Archive::create(&input, &work.join("shards"), 4, 2, 16 * 1024).unwrap();
    let output = work.join("output.bin");
    archive.extract(&output).unwrap();
    assert_eq!(fs::read(&output).unwrap(), data);

    assert_eq!(
        entries(&home),
        Vec::<String>::new(),
        "the library wrote under $HOME"
    );
    assert_eq!(
        entries(&tmp),
        Vec::<String>::new(),
        "the library wrote under the temp dir"
    );
    assert!(!std::env::temp_dir().join("xorslp-ec").exists());
    fs::remove_dir_all(&root).unwrap();
}
