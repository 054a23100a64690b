//! Pinned CRC-32 values.
//!
//! Every frame trailer, journal record, snapshot container and binary
//! checkpoint written so far carries `nebula_wire::crc32` of its body, so
//! the function's value for a given input is a file and wire format, not
//! an implementation detail. The table below was captured from the
//! slicing-by-8 implementation before any other formulation existed: a
//! faster `crc32` must reproduce it, which is a stronger statement than
//! the new code agreeing with a reference compiled beside it.
//!
//! The lengths sit on both sides of every block size a wide
//! implementation is likely to use (8, 16, 64, 128), plus a journal-sized,
//! a frame-sized and a C10-payload-sized buffer; start offset 3 moves
//! every block off its natural alignment.

use nebula_wire::crc32;

const LENGTHS: [usize; 19] =
    [0, 1, 7, 8, 15, 16, 17, 63, 64, 65, 79, 80, 127, 128, 129, 1_000, 4_101, 65_536, 920_303];

/// `(crc32(&pattern[..len]), crc32(&pattern[3..3 + len]))` per entry of
/// [`LENGTHS`].
const PINNED: [(u32, u32); 19] = [
    (0x0000_0000, 0x0000_0000),
    (0xD202_EF8D, 0xB404_D447),
    (0x7352_5E4A, 0x9398_2747),
    (0xB61A_1513, 0xE6FF_AE56),
    (0x20A6_F16E, 0x1CAC_4509),
    (0x7E9E_B03C, 0x26CA_F699),
    (0xC410_BE78, 0x772E_9010),
    (0x6B53_518C, 0x876B_FFC7),
    (0x06D2_8C3E, 0xAC34_F8CF),
    (0x806C_DF37, 0x9A1C_ED3E),
    (0xAC0A_5FAF, 0x4D6B_5E93),
    (0x8B1D_D8C5, 0x132E_9978),
    (0x37FD_09FD, 0x6C66_C7B4),
    (0x3F8D_91A4, 0x7BD2_2719),
    (0x89E3_CC01, 0xE2CC_C243),
    (0x77B6_FA33, 0xEB3D_E556),
    (0x19C3_355F, 0xBBB0_4497),
    (0x68F1_E0AA, 0x210E_1FC6),
    (0xB0F3_84E2, 0xF68B_E688),
];

/// A byte pattern with no short period: the high byte of a 32-bit
/// multiplicative hash of the index.
fn pattern(len: usize) -> Vec<u8> {
    (0..len as u32).map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8 ^ (i >> 11) as u8).collect()
}

#[test]
fn crc32_values_are_the_ones_already_on_disk_and_on_the_wire() {
    let bytes = pattern(LENGTHS[LENGTHS.len() - 1] + 3);
    let got: Vec<(u32, u32)> =
        LENGTHS.iter().map(|&len| (crc32(&bytes[..len]), crc32(&bytes[3..3 + len]))).collect();
    let table: Vec<String> = got.iter().map(|(a, b)| format!("({a:#010x}, {b:#010x})")).collect();
    assert_eq!(got, PINNED, "crc32 changed value; computed table:\n[{}]", table.join(", "));
}
