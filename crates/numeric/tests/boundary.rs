//! Differential tests at the inline/heap promotion edges: every
//! `BigInt` and `Rational` operation is checked against the limb-only
//! reference in `reference/` on operands around 0, ±1, `i64::MAX`,
//! `i64::MIN`, ±2^63, ±2^64 and products crossing 2^63, and every
//! result must equal (and hash equal to) the value parsed directly from
//! its decimal form.

mod reference;

use aov_numeric::{gcd_big, BigInt, Rational};
use reference::{RefInt, RefRational};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Decimal operands straddling the `i64` range and the first limb.
fn edge_literals() -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let magnitudes: [i128; 14] = [
        0,
        1,
        2,
        3,
        7,
        (1 << 31) + 1,
        1 << 32,
        3_037_000_499, // its square is just below 2^63
        3_037_000_500, // its square is just above 2^63
        i64::MAX as i128 - 1,
        i64::MAX as i128,
        1 << 63,
        (1 << 63) + 1,
        (1 << 64) - 1,
    ];
    for m in magnitudes {
        out.push(m.to_string());
        if m != 0 {
            out.push((-m).to_string());
        }
    }
    for m in [1i128 << 64, (1 << 64) + 1, i128::MAX] {
        out.push(m.to_string());
        out.push((-m).to_string());
    }
    out.push(i128::MIN.to_string());
    out.push("340282366920938463463374607431768211456".into()); // 2^128
    out.push("-3802951800684688204490109616128".into()); // -3·2^100
    out
}

fn big(s: &str) -> BigInt {
    s.parse().expect("edge literal parses")
}

fn reference(s: &str) -> RefInt {
    RefInt::parse(s).expect("edge literal parses")
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// `got` prints as the reference does, and equals and hashes as the
/// value built directly from that decimal form.
fn check_int(what: &str, got: &BigInt, want: &RefInt) {
    let text = want.to_string();
    assert_eq!(got.to_string(), text, "{what}");
    let direct = big(&text);
    assert_eq!(got, &direct, "{what}: canonical form");
    assert_eq!(hash_of(got), hash_of(&direct), "{what}: hash");
    assert_eq!(got.signum(), want.signum(), "{what}: signum");
    assert_eq!(got.bits(), want.bits(), "{what}: bits");
    assert_eq!(got.limbs(), want.limbs(), "{what}: limbs");
    assert_eq!(got.to_i128(), text.parse::<i128>().ok(), "{what}: to_i128");
    assert_eq!(got.to_i64(), text.parse::<i64>().ok(), "{what}: to_i64");
}

#[test]
fn bigint_ops_match_reference_at_promotion_edges() {
    let lits = edge_literals();
    for sa in &lits {
        let (a, ra) = (big(sa), reference(sa));
        check_int(&format!("parse {sa}"), &a, &ra);
        check_int(&format!("-({sa})"), &-&a, &ra.neg());
        check_int(&format!("|{sa}|"), &a.abs(), &ra.abs());
        for sb in &lits {
            let (b, rb) = (big(sb), reference(sb));
            check_int(&format!("{sa} + {sb}"), &(&a + &b), &ra.add(&rb));
            check_int(&format!("{sa} - {sb}"), &(&a - &b), &ra.sub(&rb));
            check_int(&format!("{sa} * {sb}"), &(&a * &b), &ra.mul(&rb));
            check_int(&format!("gcd({sa}, {sb})"), &gcd_big(&a, &b), &ra.gcd(&rb));
            assert_eq!(a.cmp(&b), ra.cmp(&rb), "cmp({sa}, {sb})");
            if b.is_zero() {
                continue;
            }
            let ((q, r), (rq, rr)) = (a.div_rem(&b), ra.div_rem(&rb));
            check_int(&format!("{sa} / {sb}"), &q, &rq);
            check_int(&format!("{sa} % {sb}"), &r, &rr);
            check_int(
                &format!("div_floor({sa}, {sb})"),
                &a.div_floor(&b),
                &ra.div_floor(&rb),
            );
            check_int(
                &format!("mod_floor({sa}, {sb})"),
                &a.mod_floor(&b),
                &ra.mod_floor(&rb),
            );
        }
    }
}

#[test]
fn named_i64_edge_cases() {
    let min = BigInt::from(i64::MIN);
    let two_63 = big("9223372036854775808");
    assert_eq!(-&min, two_63, "-i64::MIN");
    assert_eq!(&min / &BigInt::from(-1), two_63, "i64::MIN / -1");
    assert!((&min % &BigInt::from(-1)).is_zero(), "i64::MIN % -1");
    assert_eq!(gcd_big(&min, &min), two_63, "gcd(i64::MIN, i64::MIN)");
    assert_eq!(min.abs(), two_63);
    assert_eq!(-&two_63, min, "2^63 negates back inline");
    assert_eq!(min.limbs(), 1);
    assert_eq!(two_63.limbs(), 1);
    assert_eq!(BigInt::from(i64::MAX) + BigInt::one(), two_63);
    assert_eq!(&two_63 - &BigInt::one(), BigInt::from(i64::MAX));
}

#[test]
fn heap_round_trips_are_canonical() {
    let two_64 = big("18446744073709551616");
    let cases: Vec<(BigInt, BigInt)> = vec![
        (&(&two_64 + &BigInt::from(5)) - &two_64, BigInt::from(5)),
        (&(&two_64 * &BigInt::from(-3)) / &two_64, BigInt::from(-3)),
        (
            &(&BigInt::from(i64::MAX) * &BigInt::from(4)) / &BigInt::from(4),
            BigInt::from(i64::MAX),
        ),
        (-(-BigInt::from(i64::MIN)), BigInt::from(i64::MIN)),
        (&two_64 % &BigInt::from(7), BigInt::from(2)),
        (&two_64 - &two_64, BigInt::zero()),
        (
            gcd_big(&(&two_64 * &BigInt::from(6)), &BigInt::from(9)),
            BigInt::from(3),
        ),
        (big("-0"), BigInt::zero()),
        (big("+00042"), BigInt::from(42)),
    ];
    for (via_heap, direct) in cases {
        assert_eq!(via_heap, direct);
        assert_eq!(hash_of(&via_heap), hash_of(&direct), "{direct}");
        assert_eq!(via_heap.limbs(), direct.limbs(), "{direct}");
    }

    let r_two_63 = Rational::from(big("9223372036854775808"));
    let back = &r_two_63 - &Rational::one();
    assert_eq!(back, Rational::from(i64::MAX));
    assert_eq!(hash_of(&back), hash_of(&Rational::from(i64::MAX)));
    let half = Rational::from_big(big("9223372036854775808"), big("18446744073709551616"));
    assert_eq!(half, Rational::new(1, 2));
    assert_eq!(hash_of(&half), hash_of(&Rational::new(1, 2)));
    assert_eq!(Rational::new(i64::MIN, -1), r_two_63);
}

#[test]
fn display_and_parse_agree_with_reference() {
    for s in edge_literals() {
        assert_eq!(big(&s).to_string(), reference(&s).to_string());
        assert_eq!(format!("{:>45}", big(&s)), format!("{:>45}", reference(&s)));
    }
    for bad in ["", "-", "+", "1-2", "9223372036854775808x"] {
        assert!(bad.parse::<BigInt>().is_err(), "{bad:?}");
        assert!(RefInt::parse(bad).is_none(), "{bad:?}");
    }
}

#[test]
fn rational_ops_match_reference_at_promotion_edges() {
    let nums = [
        "0",
        "1",
        "-1",
        "6",
        "-35",
        "3037000500",
        "9223372036854775807",
        "-9223372036854775808",
        "9223372036854775808",
        "-18446744073709551616",
        "-18446744073709551615",
    ];
    let dens = [
        "1",
        "2",
        "3",
        "9223372036854775807",
        "9223372036854775808",
        "18446744073709551617",
    ];
    let mut values: Vec<(Rational, RefRational)> = Vec::new();
    for n in nums {
        for d in dens {
            values.push((
                Rational::from_big(big(n), big(d)),
                RefRational::new(reference(n), reference(d)),
            ));
        }
    }
    let check = |what: String, got: &Rational, want: &RefRational| {
        let text = want.to_string();
        assert_eq!(got.to_string(), text, "{what}");
        let direct: Rational = text.parse().expect("reference output parses");
        assert_eq!(got, &direct, "{what}: canonical form");
        assert_eq!(hash_of(got), hash_of(&direct), "{what}: hash");
    };
    for (a, ra) in &values {
        check(format!("{a}"), a, ra);
        for (b, rb) in &values {
            check(format!("{a} + {b}"), &(a + b), &ra.add(rb));
            check(format!("{a} - {b}"), &(a - b), &ra.sub(rb));
            check(format!("{a} * {b}"), &(a * b), &ra.mul(rb));
            assert_eq!(a.cmp(b), ra.cmp(rb), "cmp({a}, {b})");
            if !b.is_zero() {
                check(format!("{a} / {b}"), &(a / b), &ra.div(rb));
            }
        }
    }
}
