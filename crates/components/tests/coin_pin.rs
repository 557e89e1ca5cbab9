//! The common coin's values, pinned through the face every caller uses:
//! `deal_node_crypto` from fixed seeds, shares from `coin_share`, and
//! `combine_value` / `combine` over two disjoint quorums per coin name. One
//! SHA-256 over every value holds the coin's dealing, name hashing and
//! combination to their exact outputs, whatever scheme carries them.

use rand::SeedableRng;
use wbft_components::deal_node_crypto;
use wbft_crypto::thresh_coin::CoinName;
use wbft_crypto::{CryptoSuite, Digest32};

#[test]
fn coin_values_keep_their_exact_bytes() {
    let mut values = Vec::new();
    for (n, seed) in [(4usize, 4u64), (7, 7)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let crypto = deal_node_crypto(n, CryptoSuite::light(), &mut rng);
        let need = (n - 1) / 3 + 1;
        let coin = &crypto[n - 1].coin_pub;
        for i in 0..64usize {
            let (round, domain) = ((i % 5) as u32, (i % 3) as u32);
            let name = CoinName { session: 7919 * i as u64, round, domain };
            let shares: Vec<_> = crypto.iter().map(|c| c.coin_sec.coin_share(name)).collect();
            // Two disjoint quorums, rotating with the name: 2 · need ≤ n.
            let quorum = |from: usize| -> Vec<_> {
                (0..need).map(|k| shares[(from + k) % n]).collect()
            };
            let (a, b) = (quorum(i), quorum(i + need));
            let value = coin.combine_value(name, &a).unwrap();
            assert_eq!(coin.combine_value(name, &b).unwrap(), value, "n = {n}, name {i}");
            assert_eq!(coin.combine(name, &b).unwrap(), value & 1 == 1);
            values.extend_from_slice(&value.to_le_bytes());
            values.push(u8::from(coin.combine(name, &a).unwrap()));
        }
    }
    let digest: String = Digest32::of(&values).0.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(digest, "592b32bf0da4cf284cddc5f58e02949a9679cc123ab89ad59b549f800d207fb9");
}
