//! End-to-end tests of the `gust-verify` offline cache auditor binary.

mod common;

use common::{fix_crc, flat_cells, read_u32, same_color_pair, write_u32};
use gust::prelude::*;
use gust::schedule::serialize::write_schedule;
use gust_sparse::gen;
use gust_sparse::CsrMatrix;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_gust-verify");

fn container(seed: u64) -> Vec<u8> {
    let m = CsrMatrix::from(&gen::uniform(24, 24, 120, seed));
    let schedule = Gust::new(GustConfig::new(4)).schedule(&m);
    let mut buf = Vec::new();
    write_schedule(&schedule, &mut buf).expect("write to vec");
    buf
}

fn temp_file(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("gust-cli-{tag}-{}.gust", std::process::id()));
    std::fs::write(&path, bytes).expect("write temp container");
    path
}

#[test]
fn clean_container_passes_with_exit_zero() {
    let path = temp_file("clean", &container(1));
    let out = Command::new(BIN)
        .arg(&path)
        .output()
        .expect("run gust-verify");
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OK"), "stdout: {stdout}");
    assert!(stdout.contains("flat schedule"), "stdout: {stdout}");
}

#[test]
fn forged_container_is_rejected_with_slot_location_and_exit_one() {
    let mut buf = container(2);
    let cells = flat_cells(&buf);
    let (a, b) = same_color_pair(&cells);
    let row_mod = read_u32(&buf, a.row_mod_off);
    write_u32(&mut buf, b.row_mod_off, row_mod);
    fix_crc(&mut buf);
    let path = temp_file("forged", &buf);

    let out = Command::new(BIN)
        .arg(&path)
        .output()
        .expect("run gust-verify");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("REJECTED"), "stderr: {stderr}");
    // The report must pinpoint the violating color and slots.
    assert!(
        stderr.contains(&format!("color {}", a.color)),
        "stderr must name the color: {stderr}"
    );
    assert!(stderr.contains("write collision"), "stderr: {stderr}");
}

#[test]
fn missing_file_and_missing_args_exit_two() {
    let out = Command::new(BIN)
        .arg("/nonexistent/no-such-schedule.gust")
        .output()
        .expect("run gust-verify");
    assert_eq!(out.status.code(), Some(2));

    let out = Command::new(BIN).output().expect("run gust-verify");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn mixed_batch_reports_worst_outcome() {
    let clean = temp_file("mixed-clean", &container(3));
    let mut buf = container(4);
    let cells = flat_cells(&buf);
    let (a, b) = same_color_pair(&cells);
    let row_mod = read_u32(&buf, a.row_mod_off);
    write_u32(&mut buf, b.row_mod_off, row_mod);
    fix_crc(&mut buf);
    let forged = temp_file("mixed-forged", &buf);

    let out = Command::new(BIN)
        .arg(&clean)
        .arg(&forged)
        .output()
        .expect("run gust-verify");
    std::fs::remove_file(&clean).ok();
    std::fs::remove_file(&forged).ok();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("REJECTED"));
}

#[test]
fn retired_banded_container_magic_is_unrecognized_with_exit_two() {
    // The retired stand-alone banded container's magic: no reader
    // accepts it any more, so the CLI must not audit it as anything.
    let mut buf = container(5);
    buf[..4].copy_from_slice(b"GUSB");
    let path = temp_file("retired-banded", &buf);

    let out = Command::new(BIN)
        .arg(&path)
        .output()
        .expect("run gust-verify");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecognized magic"), "stderr: {stderr}");
    assert!(
        stderr.contains("(expected GUST or GUTL)"),
        "stderr: {stderr}"
    );
}
