//! Property-based tests: the wired-OR read must behave exactly like a
//! bitwise OR of the programmed patterns, for any geometry and any access
//! pattern.

use daism_sram::{BankGeometry, BitMatrix, GroupLayout, SramBank};
use proptest::prelude::*;

proptest! {
    #[test]
    fn bitmatrix_write_read_roundtrip(
        cols in 1usize..200,
        col in 0usize..150,
        width in 0u32..=64,
        value in any::<u64>(),
    ) {
        prop_assume!(col + width as usize <= cols);
        let value = if width == 64 { value } else { value & ((1u64 << width) - 1) };
        let mut m = BitMatrix::new(4, cols);
        m.write_bits(2, col, width, value).unwrap();
        prop_assert_eq!(m.read_bits(2, col, width).unwrap(), value);
        // Other rows untouched.
        prop_assert_eq!(m.read_bits(1, col, width).unwrap(), 0);
    }

    #[test]
    fn adjacent_writes_do_not_interfere(
        a in any::<u64>(),
        b in any::<u64>(),
        col in 0usize..60,
        width in 1u32..=16,
    ) {
        let mask = (1u64 << width) - 1;
        let mut m = BitMatrix::new(1, 256);
        m.write_bits(0, col, width, a & mask).unwrap();
        m.write_bits(0, col + width as usize, width, b & mask).unwrap();
        prop_assert_eq!(m.read_bits(0, col, width).unwrap(), a & mask);
        prop_assert_eq!(m.read_bits(0, col + width as usize, width).unwrap(), b & mask);
    }

    #[test]
    fn bank_group_read_equals_software_or(
        seed in any::<u64>(),
        width in prop::sample::select(vec![8u32, 12, 16, 24]),
        cols in prop::sample::select(vec![128usize, 200]),
        mask in 0u64..256,
        faults in prop::collection::vec((any::<u64>(), any::<bool>()), 0..24),
    ) {
        // Two 8-line groups; 12- and 24-bit slots straddle 64-bit words,
        // and 200 columns leave a partial last word.
        const LINES: usize = 8;
        const GROUPS: usize = 2;
        let geom = BankGeometry::new(GROUPS * LINES, cols).unwrap();
        let mut bank = SramBank::new(geom, GroupLayout::new(LINES, width).unwrap()).unwrap();
        let slots = bank.slots();
        let full = (1u64 << width) - 1;
        let cell = |group: usize, line: usize, slot: usize| (group * LINES + line) * slots + slot;
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 16
        };
        // The software model: every programmed pattern as a plain u64,
        // and per stored pattern the bits pinned to 0 and to 1.
        let mut stored = vec![0u64; GROUPS * LINES * slots];
        for group in 0..GROUPS {
            for line in 0..LINES {
                for slot in 0..slots {
                    let pattern = next() & full;
                    bank.write_line(group, line, slot, pattern).unwrap();
                    stored[cell(group, line, slot)] = pattern;
                }
            }
        }
        let mut stuck0 = vec![0u64; stored.len()];
        let mut stuck1 = vec![0u64; stored.len()];
        for &(r, value) in &faults {
            let (group, line) = (r as usize % GROUPS, (r >> 8) as usize % LINES);
            let (slot, bit) = ((r >> 16) as usize % slots, ((r >> 32) % u64::from(width)) as u32);
            bank.inject_stuck_at(group, line, slot, bit, value).unwrap();
            let i = cell(group, line, slot);
            let (set, unset) = if value { (&mut stuck1, &mut stuck0) } else { (&mut stuck0, &mut stuck1) };
            set[i] |= 1 << bit;
            unset[i] &= !(1 << bit);
        }
        for group in 0..GROUPS {
            let read = bank.read_or_group(group, mask).unwrap();
            prop_assert_eq!(read.len(), slots);
            for (slot, &got) in read.iter().enumerate() {
                let expect = (0..LINES)
                    .filter(|line| mask >> line & 1 == 1)
                    .map(|line| cell(group, line, slot))
                    .fold(0, |or, i| or | (stored[i] & !stuck0[i]) | stuck1[i]);
                prop_assert_eq!(got, expect, "group {} slot {}", group, slot);
            }
        }
        let st = bank.stats();
        prop_assert_eq!(st.writes, stored.len() as u64);
        prop_assert_eq!(st.bits_written, stored.len() as u64 * u64::from(width));
        prop_assert_eq!(st.or_reads, GROUPS as u64);
        prop_assert_eq!(st.wordline_activations, GROUPS as u64 * u64::from(mask.count_ones()));
        prop_assert_eq!(st.bitlines_sensed, (GROUPS * cols) as u64);
    }

    #[test]
    fn or_read_dominates_each_line(
        lines in prop::collection::vec(0u64..0xFFFF, 2..8),
        mask_bits in 1u8..=255,
    ) {
        let geom = BankGeometry::square_from_bytes(2 * 1024).unwrap();
        let layout = GroupLayout::new(8, 16).unwrap();
        let mut bank = SramBank::new(geom, layout).unwrap();
        for (i, &p) in lines.iter().enumerate() {
            bank.write_line(0, i, 3, p).unwrap();
        }
        let mask = (mask_bits as u64) & ((1 << lines.len()) - 1);
        prop_assume!(mask != 0);
        let v = bank.read_or_group(0, mask).unwrap()[3];
        for (i, &p) in lines.iter().enumerate() {
            if (mask >> i) & 1 == 1 {
                // OR result contains every activated line's bits.
                prop_assert_eq!(v & p, p);
            }
        }
    }
}
