//! Property tests for the GeoIP substrate.

use geoip::{AddressAllocator, DiurnalModel, GeoDb, Region};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn allocation_round_trips_for_any_seed(seed in any::<u64>(), region_idx in 0usize..4) {
        let db = GeoDb::synthetic();
        let alloc = AddressAllocator::new(&db);
        let region = Region::ALL[region_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            let ip = alloc.sample(region, &mut rng);
            prop_assert_eq!(db.lookup(ip), region);
            // Host byte stays clear of network/broadcast values.
            prop_assert!(ip.octets()[3] != 0 && ip.octets()[3] != 255);
        }
    }

    #[test]
    fn lookups_are_total(a in any::<u8>(), b in any::<u8>(), c in any::<u8>(), d in any::<u8>()) {
        // Every address resolves to exactly one of the four classes.
        let db = GeoDb::synthetic();
        let region = db.lookup(std::net::Ipv4Addr::new(a, b, c, d));
        prop_assert!(Region::ALL.contains(&region));
    }

    #[test]
    fn diurnal_fractions_form_a_distribution(hour in 0u32..48) {
        let m = DiurnalModel::paper_default();
        let f = m.fractions(hour);
        let sum: f64 = f.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-12);
        for v in f {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        // Peak classification is total and boolean-consistent across wrap.
        for r in Region::ALL {
            prop_assert_eq!(m.is_peak(r, hour), m.is_peak(r, hour % 24));
        }
    }

    #[test]
    fn region_sampling_matches_support(hour in 0u32..24, seed in any::<u64>()) {
        let m = DiurnalModel::paper_default();
        let mut rng = StdRng::seed_from_u64(seed);
        let r = m.sample_region(hour, &mut rng);
        prop_assert!(m.fractions(hour)[r.index()] > 0.0, "sampled a zero-probability region");
    }
}
