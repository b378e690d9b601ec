//! The generated data is pinned: an FNV-1a digest of every table's wire
//! encoding (`Rows::encode`, so float bit patterns and cell order count)
//! at two (scale factor, seed) points, recorded from the row generator
//! before the tables were generated straight into columns. Whatever
//! layout the generator or the storage layer uses, `generate` and
//! `populate` must still hand out exactly these rows.

use geoqp_common::{Rows, TableRef};
use geoqp_tpch::gen::generate;
use geoqp_tpch::schema::TABLES;
use geoqp_tpch::{paper_catalog, populate};

/// `(sf, seed, [digest per table, in `TABLES` order])`.
const DIGESTS: [(f64, u64, [u64; 8]); 2] = [
    (
        0.002,
        7,
        [
            0xd97f_02d7_231f_bdc2,
            0x1464_e995_97e8_1d6a,
            0x6a1c_4873_94e0_c2a2,
            0x2602_ec9a_6d41_0cc8,
            0xe044_a392_5c2d_f38d,
            0xbb90_de8f_0f2e_3ebc,
            0x2488_8f03_78b3_f1c1,
            0x2fdd_f759_9e8a_4002,
        ],
    ),
    (
        0.01,
        2021,
        [
            0xd97f_02d7_231f_bdc2,
            0x1464_e995_97e8_1d6a,
            0x06fd_9546_1127_be05,
            0xb762_8ad8_31b6_146f,
            0x8b58_8a49_12a6_6d80,
            0x7297_3029_414f_7c0b,
            0xe5b3_da3c_1bd1_48b8,
            0xdd38_5000_689c_4415,
        ],
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

#[test]
fn generated_tables_match_their_recorded_digests() {
    for (sf, seed, want) in DIGESTS {
        for (t, want) in TABLES.iter().zip(want) {
            let rows = Rows::from_rows(generate(t, sf, seed).unwrap());
            let got = fnv1a(&rows.encode());
            assert_eq!(got, want, "{t} at sf {sf}, seed {seed}: {got:#018x}");
        }
    }
}

#[test]
fn populated_tables_read_back_as_the_recorded_digests() {
    for (sf, seed, want) in DIGESTS {
        let catalog = paper_catalog(sf);
        populate(&catalog, sf, seed).unwrap();
        for (t, want) in TABLES.iter().zip(want) {
            let entry = catalog.resolve_one(&TableRef::bare(t)).unwrap();
            let got = fnv1a(&entry.data().unwrap().to_rows().encode());
            assert_eq!(got, want, "{t} at sf {sf}, seed {seed}: {got:#018x}");
        }
    }
}
