//! Byte-identity pins for everything a user can read off the system:
//!
//! * the smoke-budget report of every registry experiment, as the
//!   workspace `Fingerprinter` digest of the rendered text (the same
//!   digest `perfbench/golden.txt` pins at paper budget);
//! * the content addresses the experiment's jobs are stored under: the
//!   job count, the smallest hex `job_digest`, and a digest over all of
//!   them in sorted order — so a cache filled by an older build keeps
//!   answering;
//! * raw `axcc serve` `eval` response lines, two scored and one refused.
//!
//! A change that alters any of these alters what users see or invalidates
//! their stores; such a change must update the values here on purpose.

// Test-only helper fns sit outside #[test], where the workspace's
// allow-unwrap-in-tests exemption does not reach.
#![allow(clippy::unwrap_used)]

use axiomatic_cc::analysis::experiments::{registry, RunBudget};
use axiomatic_cc::core::Fingerprinter;
use axiomatic_cc::serve::{start, ServeConfig};
use axiomatic_cc::sweep::SweepRunner;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// `(experiment, report digest, jobs stored, smallest job digest, digest of all job digests)`.
const GOLDEN: [(&str, &str, usize, &str, &str); 12] = [
    (
        "table1",
        "a089876e2d36a90c896b0ec8c6923e39",
        5,
        "4dbe61a70c42f5de4d8810436d847ba7",
        "a7c95324f31581fcc8ec8c577d972bcd",
    ),
    (
        "table2",
        "03d6fb97512ae14e9b56b138a80064c1",
        12,
        "015d49741c9c40b983a202e2b8e9c9c4",
        "8d48477370698f3acf40c06f28dabda5",
    ),
    (
        "figure1",
        "d7b694649db18047fe6d6ae789bd8160",
        25,
        "0729af43fd2bcc8438bc093b19f3ac7d",
        "ae250d5589cfeb0d58af877247622b20",
    ),
    (
        "theorems",
        "92107a99385fc32d3df35f0386ccacc0",
        6,
        "2d7a60dc9cb565a47191c94bf61d5211",
        "dd0c7b0784931cef89243ac214321d1c",
    ),
    (
        "emulab",
        "ad6e034f2da903820ac3dc0f7a513ec5",
        3,
        "085c2a8edef3fd89bd1380d6b6d1fb16",
        "6a2f1bae240e0e0188efee13d5729f40",
    ),
    (
        "shootout",
        "2ed31c95af98ba3662a58a10562eb299",
        6,
        "181dbfead897b1151a3e67e90a8899b4",
        "9d8141ac37374086dcdb1125c0196d41",
    ),
    (
        "gauntlet",
        "d838042b52030b1508280ee1e6e4378a",
        30,
        "03f83b3b014d627c7f36b0668dc427ff",
        "a7520ce70bc99b1b78f52b72439f2048",
    ),
    (
        "frontier",
        "0900eab298b09734dcd54d3f3666b36d",
        17,
        "1977f79e50d0d71a6c3699e4b98fc343",
        "543bfee05fd2dfef60d85fc3622ae7fe",
    ),
    (
        "explore",
        "bc716e779e4e1ad974724c16feedd226",
        310,
        "00fc8e4e22a5d0cf7f8bec823aa796d2",
        "331f70a07c3f119e766c1ccb6d315349",
    ),
    (
        "aqm",
        "469c3e20fe2f48821cd2c2479d2b5a43",
        8,
        "071e3d9a687b4b8542a0f79356f20812",
        "08c1273be25f7572ca4ba3931babd015",
    ),
    (
        "extensions",
        "77838836c85c3f05c0149a972725dee4",
        9,
        "00917ace5b75937810a74a831f183091",
        "f1a0294a3fa3267a9930bb73fcbc478f",
    ),
    (
        "churn",
        "da81c31737e87c6af50409d4d45073a5",
        20,
        "0e1cd4772a83e6ed5862210f0c790dc8",
        "ca8cd3b3029f083934cf5fc8393556de",
    ),
];

fn digest_of(text: &str) -> String {
    let mut fp = Fingerprinter::new();
    fp.write_str(text);
    fp.finish().to_hex()
}

/// Every job digest in an on-disk store, read from the segment entry
/// headers (`axcc1 <32-hex digest> <body len>\n` + body), sorted.
fn stored_digests(dir: &Path) -> Vec<String> {
    let mut digests = Vec::new();
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(Result::ok).map(|e| e.path()).collect())
        .unwrap_or_default();
    files.sort();
    for path in files {
        let bytes = std::fs::read(&path).unwrap();
        let mut pos = 0;
        while pos < bytes.len() {
            let end = pos + bytes[pos..].iter().position(|&b| b == b'\n').unwrap();
            let header = std::str::from_utf8(&bytes[pos..end]).unwrap();
            let mut parts = header.split(' ');
            assert_eq!(parts.next(), Some("axcc1"), "{}", path.display());
            digests.push(parts.next().unwrap().to_string());
            let len: usize = parts.next().unwrap().parse().unwrap();
            pos = end + 1 + len;
        }
    }
    digests.sort();
    digests.dedup();
    digests
}

#[test]
fn smoke_reports_and_job_digests_match_the_golden_values() {
    let root = std::env::temp_dir().join(format!("axcc-golden-{}", std::process::id()));
    let mut actual = Vec::new();
    for e in registry() {
        let dir = root.join(e.name);
        let _ = std::fs::remove_dir_all(&dir);
        let runner = SweepRunner::with_disk_cache(1, dir.clone());
        let out = (e.run)(&runner, RunBudget::smoke());
        let digests = stored_digests(&dir);
        actual.push((
            e.name,
            digest_of(&out.report),
            digests.len(),
            digests.first().cloned().unwrap_or_default(),
            digest_of(&digests.join(",")),
        ));
    }
    let _ = std::fs::remove_dir_all(&root);
    let rendered: Vec<String> = actual
        .iter()
        .map(|(n, r, k, first, all)| format!("    ({n:?}, {r:?}, {k}, {first:?}, {all:?}),"))
        .collect();
    let expected: Vec<String> = GOLDEN
        .iter()
        .map(|(n, r, k, first, all)| format!("    ({n:?}, {r:?}, {k}, {first:?}, {all:?}),"))
        .collect();
    assert_eq!(rendered, expected, "actual:\n{}", rendered.join("\n"));
}

/// `(request, response line)` pairs answered by a fresh daemon.
const SERVE_GOLDEN: [(&str, &str); 3] = [
    (
        r#"{"id": 1, "op": "eval", "protocols": ["reno", "cubic"], "steps": 600, "seed": 7, "wire_loss": 0.01}"#,
        r#"{"id":1,"ok":true,"result":{"metrics":{"convergence":0.19353709592008794,"efficiency":0.3826887131644132,"fairness":0.27084975429142577,"fast_utilization":1.0588235294117647,"latency_inflation":null,"loss_bound":0.17981582581090905,"mean_utilization":0.795928479419287},"senders":[{"mean_goodput":272.0247537700429,"mean_window":11.874253636152384,"protocol":"reno"},{"mean_goodput":955.3055343193355,"mean_window":43.840739923197646,"protocol":"cubic"}]}}"#,
    ),
    (
        r#"{"id": 2, "op": "eval", "protocols": ["vegas", "pcc", "bin(1,0.5,1,0)"], "steps": 400, "link": {"mbps": 20.0, "rtt_ms": 30.0, "buffer": 50.0}}"#,
        r#"{"id":2,"ok":true,"result":{"metrics":{"convergence":0.26569170902302564,"efficiency":1,"fairness":0.03415077250336194,"fast_utilization":null,"latency_inflation":null,"loss_bound":0.03939004610746222,"mean_utilization":1.9852351479432935},"senders":[{"mean_goodput":42.41073068499213,"mean_window":3.124507056492145,"protocol":"vegas"},{"mean_goodput":1304.3019328961625,"mean_window":91.49154843231017,"protocol":"pcc"},{"mean_goodput":65.78733641884529,"mean_window":4.645701908362318,"protocol":"bin(1,0.5,1,0)"}]}}"#,
    ),
    (
        r#"{"id": 3, "op": "eval", "protocols": ["reno"], "steps": 0}"#,
        r#"{"error":{"kind":"invalid-scenario","message":"scenario parameter steps = 0 is invalid: must be at least one step"},"id":3,"ok":false}"#,
    ),
];

#[test]
fn serve_eval_response_lines_match_the_golden_values() {
    let server = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut actual = Vec::new();
    for (request, _) in SERVE_GOLDEN {
        writer.write_all(request.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        actual.push(line.trim_end().to_string());
    }
    server.trigger_shutdown();
    server.join();
    let expected: Vec<String> = SERVE_GOLDEN.iter().map(|(_, r)| r.to_string()).collect();
    assert_eq!(actual, expected, "actual:\n{}", actual.join("\n"));
}
