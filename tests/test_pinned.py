"""End-to-end results pinned bit for bit, as ``float.hex()``.

Each case builds its hypotheses and mechanisms from pure-Python seeded
draws (``random.Random``), so the inputs do not depend on numpy's
generators. Any change to refinement, per-key composition, grouping or
the exact sums that moves one bit of a reported double fails here.
"""

import math
import random
import time

from hypodp.composition import Advanced, Simple
from hypodp.core import BitVector, Hypothesis, MechanismSequence, PrivacyParams
from hypodp.hypothesis_dp import hdp_guarantee
from hypodp.oracle import leaky_rr, randomized_response, verify_hdp
from hypodp.subsampling import uniform_prior_bound


def homog(k, eps=0.3, delta=1e-6):
    return MechanismSequence.homogeneous(eps, delta, k)


def hetero(k):
    return MechanismSequence.from_pairs(
        (0.05 + 0.1 * (i % 7), (0.0, 1e-7, 3e-6)[i % 3]) for i in range(k))


def shared_delta(k):
    """Three epsilons, one delta: distinct keys of one popcount compose to one delta."""
    return MechanismSequence(tuple(PrivacyParams((0.2, 0.45, 0.9)[i % 3], 1e-6)
                                   for i in range(k)))


def zero(k):
    return Hypothesis.point_mass(BitVector.zeros(k))


def ones(k):
    return Hypothesis.point_mass(BitVector.ones(k))


def mixture(rng, k, n):
    words = rng.sample(range(1 << k), n)
    raw = [rng.random() + 0.01 for _ in words]
    total = math.fsum(raw)
    return Hypothesis([(BitVector(w, k), r / total) for w, r in zip(words, raw)])


def hdp_cases():
    cases = {}
    for k in (4, 9, 14):
        all_, nonzero = Hypothesis.uniform_all(k), Hypothesis.uniform_nonzero(k)
        cases[f"zero-nonzero-k{k}-simple"] = (zero(k), nonzero, hetero(k), Simple())
        cases[f"nonzero-zero-k{k}-simple"] = (nonzero, zero(k), hetero(k), Simple())
        cases[f"zero-all-k{k}-advanced"] = (zero(k), all_, homog(k), Advanced(1e-6))
        cases[f"all-ones-k{k}-simple"] = (all_, ones(k), homog(k), Simple())
        cases[f"all-nonzero-k{k}-simple"] = (all_, nonzero, hetero(k), Simple())
        cases[f"nonzero-all-k{k}-advanced"] = (nonzero, all_, homog(k), Advanced(1e-6))
    for k in (16, 20):  # exchangeable pairs beyond the flat walk's reach: the class path
        nonzero = Hypothesis.uniform_nonzero(k)
        for p0_name, p0 in (("zero", zero(k)), ("all", Hypothesis.uniform_all(k))):
            cases[f"{p0_name}-nonzero-k{k}-homog-simple"] = (p0, nonzero, homog(k), Simple())
            cases[f"{p0_name}-nonzero-k{k}-homog-advanced"] = (
                p0, nonzero, homog(k), Advanced(1e-6))
    for k in (1, 2, 3, 6, 10, 12):
        cases[f"all-nonzero-k{k}-homog"] = (
            Hypothesis.uniform_all(k), Hypothesis.uniform_nonzero(k), homog(k, 0.7, 0.0), Simple())
    for seed in range(1, 7):
        rng = random.Random(seed)
        k = (5, 8, 11)[seed % 3]
        mix = mixture(rng, k, rng.randrange(2, min(300, 1 << k)))
        point = Hypothesis.point_mass(BitVector(rng.randrange(1 << k), k))
        seq, theorem = (hetero(k), Simple()) if seed % 2 else (homog(k), Advanced(1e-5))
        cases[f"point-mixture-s{seed}"] = (point, mix, seq, theorem)
        cases[f"mixture-point-s{seed}"] = (mix, point, seq, theorem)
    for seed in range(11, 19):
        rng = random.Random(seed)
        k = rng.randrange(3, 12)
        p0 = mixture(rng, k, rng.randrange(1, min(200, 1 << k)))
        p1 = mixture(rng, k, rng.randrange(1, min(200, 1 << k)))
        cases[f"mixtures-s{seed}-simple"] = (p0, p1, shared_delta(k), Simple())
        cases[f"mixtures-s{seed}-advanced"] = (p0, p1, homog(k, 0.25, 0.0), Advanced(1e-5))
    cases["point-point-k7"] = (zero(7), Hypothesis.point_mass(BitVector(0b1011001, 7)),
                               hetero(7), Simple())
    cases["point-point-same-k5"] = (ones(5), ones(5), homog(5), Simple())
    return cases


# From k = 1075 on the weights of blocks 1074 and beyond round to zero.
BOUNDARY_KS = (1074, 1075, 1076, 1100)


def uniform_prior_cases():
    return {
        **{f"simple-homog-k{k}": (homog(k, 0.4, 1e-7), Simple())
           for k in (1, 5, 20, 80, *BOUNDARY_KS)},
        **{f"simple-hetero-k{k}": (hetero(k), Simple()) for k in (3, 17, 64, *BOUNDARY_KS)},
        **{f"advanced-homog-k{k}": (homog(k, 0.2, 1e-7), Advanced(1e-6))
           for k in (4, 30, *BOUNDARY_KS)},
    }


def as_hex(g):
    return (g.epsilon.hex(), g.delta.hex())


HDP_PINNED = {
    "zero-nonzero-k4-simple": ("0x1.cbcb69b16f9bcp-2", "0x1.bbd03397eb520p-20"),
    "nonzero-zero-k4-simple": ("0x1.cbcb69b16f9bcp-2", "0x1.bbd03397eb520p-20"),
    "zero-all-k4-advanced": ("0x1.4a3b566a609d4p+1", "0x1.8a43bb40b34e7p-19"),
    "all-ones-k4-simple": ("0x1.4a277412b5f00p-1", "0x1.0c6f7a0b5ed8dp-19"),
    "all-nonzero-k4-simple": ("0x1.18c3720082daep-1", "0x1.b7617958580eap-22"),
    "nonzero-all-k4-advanced": ("0x1.6966661e7f291p-1", "0x1.1e54c672874dcp-22"),
    "zero-nonzero-k9-simple": ("0x1.785a97f5d5f6fp+0", "0x1.38aab9a3a3475p-18"),
    "nonzero-zero-k9-simple": ("0x1.785a97f5d5f6fp+0", "0x1.38aab9a3a3475p-18"),
    "zero-all-k9-advanced": ("0x1.0113520cbde24p+2", "0x1.70f7b9e060fe4p-18"),
    "all-ones-k9-simple": ("0x1.736c62950cae1p+0", "0x1.2dfd694ccab3fp-18"),
    "all-nonzero-k9-simple": ("0x1.cda82126f893bp+0", "0x1.31372cf3e92dep-22"),
    "nonzero-all-k9-advanced": ("0x1.95148519de114p-2", "0x1.2e94b3a69e0c5p-26"),
    "zero-nonzero-k14-simple": ("0x1.5d93972358d26p+1", "0x1.a374bc84b645ap-18"),
    "nonzero-zero-k14-simple": ("0x1.5d93972358d26p+1", "0x1.a374bc84b645ap-18"),
    "zero-all-k14-advanced": ("0x1.492573bda27f8p+2", "0x1.0c6ef3d3a1d32p-17"),
    "all-ones-k14-simple": ("0x1.20e285905f321p+1", "0x1.d5c31593e5fb7p-18"),
    "all-nonzero-k14-simple": ("0x1.98622449020a5p+1", "0x1.5301305b06a7dp-26"),
    "nonzero-all-k14-advanced": ("0x1.167de9ff657d4p-2", "0x1.d5ca6cbd99674p-31"),
    "zero-nonzero-k16-homog-simple": ("0x1.4a27ea5e54831p+1", "0x1.0c70867be554bp-17"),
    "zero-nonzero-k16-homog-advanced": ("0x1.6318d174b1d78p+2", "0x1.2dfe75bd512fdp-17"),
    "all-nonzero-k16-homog-simple": ("0x1.6263b04986240p-6", "0x1.0c70867be555cp-33"),
    "all-nonzero-k16-homog-advanced": ("0x1.ef1eaa8e65800p-3", "0x1.0c70867be555cp-32"),
    "zero-nonzero-k20-homog-simple": ("0x1.9cb158c5e6b41p+1", "0x1.4f8b6d86ed677p-17"),
    "zero-nonzero-k20-homog-advanced": ("0x1.93ab57211a2d0p+2", "0x1.71195cc859429p-17"),
    "all-nonzero-k20-homog-simple": ("0x1.1c204b19acfc0p-6", "0x1.4f8b6d86eeb70p-37"),
    "all-nonzero-k20-homog-advanced": ("0x1.9537905689b80p-3", "0x1.4f8b6d86eeb70p-36"),
    "all-nonzero-k1-homog": ("0x1.a3e13aa6300d7p-2", "0x0.0p+0"),
    "all-nonzero-k2-homog": ("0x1.49ee210ea2dfap-2", "0x0.0p+0"),
    "all-nonzero-k3-homog": ("0x1.0940364cd877ep-2", "0x0.0p+0"),
    "all-nonzero-k6-homog": ("0x1.3b1700914ae5cp-3", "0x0.0p+0"),
    "all-nonzero-k10-homog": ("0x1.8b23de690eab0p-4", "0x0.0p+0"),
    "all-nonzero-k12-homog": ("0x1.4c1b9f71856d0p-4", "0x0.0p+0"),
    "point-mixture-s1": ("0x1.79ce09a96cd7dp+0", "0x1.d070a12219673p-19"),
    "mixture-point-s1": ("0x1.79ce09a96cd7dp+0", "0x1.d070a12219673p-19"),
    "point-mixture-s2": ("0x1.1478f55460d30p+2", "0x1.0b568138c78abp-16"),
    "mixture-point-s2": ("0x1.1478f55460d30p+2", "0x1.0b568138c78abp-16"),
    "point-mixture-s3": ("0x1.70d749b7ce6b8p-1", "0x1.a82ddfabecfd3p-20"),
    "mixture-point-s3": ("0x1.70d749b7ce6b8p-1", "0x1.a82ddfabecfd3p-20"),
    "point-mixture-s4": ("0x1.b6b8f875c211bp+1", "0x1.d3824c6fdf16dp-17"),
    "mixture-point-s4": ("0x1.b6b8f875c211bp+1", "0x1.d3824c6fdf16dp-17"),
    "point-mixture-s5": ("0x1.c9053d826ced6p+0", "0x1.3b0a74fd153f6p-18"),
    "mixture-point-s5": ("0x1.c9053d826ced6p+0", "0x1.3b0a74fd153f6p-18"),
    "point-mixture-s6": ("0x1.45c4e0f856a70p+1", "0x1.956f5b81133f6p-17"),
    "mixture-point-s6": ("0x1.45c4e0f856a70p+1", "0x1.956f5b81133f6p-17"),
    "mixtures-s11-simple": ("0x1.e652cda8feb71p+1", "0x1.2efa1c8f62ffcp-18"),
    "mixtures-s11-advanced": ("0x1.f0888b05d7a4fp+1", "0x1.4f8b588e368f4p-17"),
    "mixtures-s12-simple": ("0x1.070fded1374b2p+2", "0x1.e043456a41a16p-19"),
    "mixtures-s12-advanced": ("0x1.05eed3fdc9b58p+2", "0x1.4da1c1584cba9p-17"),
    "mixtures-s13-simple": ("0x1.67f611ed4fe40p+1", "0x1.75cd029e2ebe9p-19"),
    "mixtures-s13-advanced": ("0x1.87d60695e9adap+1", "0x1.4bf0004602a60p-17"),
    "mixtures-s14-simple": ("0x1.12233b21ace2dp+0", "0x1.0b578d54fcd80p-19"),
    "mixtures-s14-advanced": ("0x1.0f88ec522fd13p+1", "0x1.4f8b588e368f1p-17"),
    "mixtures-s15-simple": ("0x1.c2d006814f59ap+0", "0x1.84dc97d20bcdcp-19"),
    "mixtures-s15-advanced": ("0x1.25b5cc2b10958p+1", "0x1.4f8b588e368f1p-17"),
    "mixtures-s16-simple": ("0x1.6f97ee9567fe0p+1", "0x1.6e7928045cb63p-19"),
    "mixtures-s16-advanced": ("0x1.8c3c58c075835p+1", "0x1.465e0f45e58f5p-17"),
    "mixtures-s17-simple": ("0x1.0afd6754e2174p+2", "0x1.2737eb4bd6f84p-18"),
    "mixtures-s17-advanced": ("0x1.fb0603b12363ap+1", "0x1.4b7c3b7542830p-17"),
    "mixtures-s18-simple": ("0x1.886e7b3dcf1d0p+0", "0x1.4be320f8b48b1p-19"),
    "mixtures-s18-advanced": ("0x1.3abbfa00ee2f1p+1", "0x1.3b53b0cf7db43p-17"),
    "point-point-k7": ("0x1.4cccccccccccep+0", "0x1.92a737110e454p-19"),
    "point-point-same-k5": ("0x0.0p+0", "0x0.0p+0"),
}

UNIFORM_PRIOR_PINNED = {
    "simple-homog-k1": ("0x1.999999999999ap-2", "0x1.ad7f29abcaf48p-24"),
    "simple-homog-k5": ("0x1.1ee14eb481f2dp+0", "0x1.15183beab47cbp-22"),
    "simple-homog-k20": ("0x1.196e629d55136p+2", "0x1.0c6f8ad25785fp-20"),
    "simple-homog-k80": ("0x1.196e5ea9efe28p+4", "0x1.0c6f7a0b5ed8dp-18"),
    "simple-homog-k1074": ("0x1.d846d0752cf4fp+7", "0x1.c277df34ae5d7p-15"),
    "simple-homog-k1075": ("0x1.d8b7630170ee8p+7", "0x1.c2e33eff19503p-15"),
    "simple-homog-k1076": ("0x1.d927f58db4e81p+7", "0x1.c34e9ec98442fp-15"),
    "simple-homog-k1100": ("0x1.e3b5b2b4144d6p+7", "0x1.cd5f99c38b04bp-15"),
    "simple-hetero-k3": ("0x1.0fddc61e63b76p-2", "0x1.dc43c98248a1dp-20"),
    "simple-hetero-k17": ("0x1.7bc4681212fc9p+1", "0x1.05ba0041afcdep-17"),
    "simple-hetero-k64": ("0x1.8a134ba20aeabp+3", "0x1.110c97bdf746fp-15"),
    "simple-hetero-k1074": ("0x1.a250f84ebf34ep+7", "0x1.22ed6ad205f1bp-11"),
    "simple-hetero-k1075": ("0x1.a2b25ec9465adp+7", "0x1.22ed6ad205f1bp-11"),
    "simple-hetero-k1076": ("0x1.a3326c1ff4ce8p+7", "0x1.22f420ceaca0ep-11"),
    "simple-hetero-k1100": ("0x1.acd1b208884e0p+7", "0x1.29746d9026535p-11"),
    "advanced-homog-k4": ("0x1.0c13962db9c76p+0", "0x1.33ce5554b7d9ep-20"),
    "advanced-homog-k30": ("0x1.b97182398779dp+1", "0x1.4f8b588f42fe7p-19"),
    "advanced-homog-k1074": ("0x1.ebac9fe3a107ap+4", "0x1.cadb5b0509543p-15"),
    "advanced-homog-k1075": ("0x1.ebfebe69b8686p+4", "0x1.cb46bacf7446fp-15"),
    "advanced-homog-k1076": ("0x1.ec50d8d221fc5p+4", "0x1.cbb21a99df39bp-15"),
    "advanced-homog-k1100": ("0x1.f3fe8e9315710p+4", "0x1.d5c31593e5fb7p-15"),
}


def rising(k):
    """Deltas that grow with the position: ascending single-bit words carry descending deltas."""
    return MechanismSequence.from_pairs((0.1 + 0.07 * (i % 5), 1e-6 * (i + 1)) for i in range(k))


def two_groups(k):
    return MechanismSequence(tuple(PrivacyParams(*((0.3, 1e-6) if i % 3 else (0.7, 0.0)))
                                   for i in range(k)))


def small_path_cases():
    """Pairs that take each small-input path of the aggregation and the keys."""
    cases = {}
    for seed in range(1, 5):  # a point mass's one group, sorted by descending key deltas
        rng = random.Random(100 + seed)
        k = (5, 7, 9)[seed % 3]
        words = sorted(rng.sample([1 << j for j in range(k)], rng.randrange(3, k + 1)))
        raw = [rng.random() + 0.01 for _ in words]
        total = math.fsum(raw)
        mix = Hypothesis([(BitVector(w, k), r / total) for w, r in zip(words, raw)])
        cases[f"zero-descending-s{seed}"] = (zero(k), mix, rising(k), Simple())
        cases[f"descending-zero-s{seed}"] = (mix, zero(k), rising(k), Simple())
    for seed in (0, 8, 24, 45):  # both directions below their eps_G: delta_J twice
        rng = random.Random(seed)
        k = rng.randrange(4, 9)
        p0 = mixture(rng, k, rng.randrange(2, 12))
        p1 = mixture(rng, k, rng.randrange(2, 12))
        cases[f"delta-j-both-s{seed}"] = (p0, p1, hetero(k), Simple())
    for k in (3, 6, 9, 12):  # two groups on the class path: packed keys, then deduplicated
        cases[f"zero-nonzero-two-groups-k{k}"] = (
            zero(k), Hypothesis.uniform_nonzero(k), two_groups(k), Simple())
        cases[f"all-ones-two-groups-k{k}"] = (
            Hypothesis.uniform_all(k), ones(k), two_groups(k), Simple())
    return cases


def oracle_cases():
    """``verify_hdp`` on contractions whose steps are small, large and mixed, plans merged
    as lists and as arrays."""
    cases = {}
    for k in (3, 5, 8):
        rng = random.Random(800 + k)
        rr = [randomized_response(rng.uniform(0.2, 0.3)) for _ in range(k)]
        leaky = [leaky_rr(rng.uniform(0.3, 1.5), rng.uniform(1e-3, 2e-2)) for _ in range(k)]
        few = mixture(rng, k, min(5, 1 << k))
        many = mixture(rng, k, min(100, (1 << k) - 1))
        for name, mechs in (("rr", rr), ("leaky", leaky)):
            for pair_name, p0, p1 in (("zero-nonzero", zero(k), Hypothesis.uniform_nonzero(k)),
                                      ("all-ones", Hypothesis.uniform_all(k), ones(k)),
                                      ("zero-few", zero(k), few), ("few-many", few, many)):
                cases[f"{name}-{pair_name}-k{k}"] = (mechs, p0, p1, PrivacyParams(0.8, 1e-3))
    return cases


SMALL_PATH_PINNED = {
    "zero-descending-s1": ('0x1.b8774f96ecc9dp-3', '0x1.31b8bd3d1bf51p-18'),
    "descending-zero-s1": ('0x1.b8774f96ecc9dp-3', '0x1.31b8bd3d1bf51p-18'),
    "zero-descending-s2": ('0x1.a849f2af6cf13p-3', '0x1.318daf9c7ea9bp-18'),
    "descending-zero-s2": ('0x1.a849f2af6cf13p-3', '0x1.318daf9c7ea9bp-18'),
    "zero-descending-s3": ('0x1.fcb03507a46d4p-3', '0x1.98811c2d609e7p-19'),
    "descending-zero-s3": ('0x1.fcb03507a46d4p-3', '0x1.98811c2d609e7p-19'),
    "zero-descending-s4": ('0x1.a2958de5c3812p-4', '0x1.38e09950ed014p-18'),
    "descending-zero-s4": ('0x1.a2958de5c3812p-4', '0x1.38e09950ed014p-18'),
    "delta-j-both-s0": ('0x1.8000000000000p+0', '0x1.fc658b7208907p-20'),
    "delta-j-both-s8": ('0x1.c451bd1dee2d4p-1', '0x1.0c794416b96d6p-21'),
    "delta-j-both-s24": ('0x1.9ad21f29ce218p+0', '0x1.d937fe14176b4p-20'),
    "delta-j-both-s45": ('0x1.a58012a1bd60ap+0', '0x1.d50b81c9df13ap-19'),
    "zero-nonzero-two-groups-k3": ('0x1.9ba7c1ba76fdap-1', '0x1.32c88b7ab58a1p-20'),
    "all-ones-two-groups-k3": ('0x1.7704575c72fecp-1', '0x1.0c6f7a0b5ed8dp-20'),
    "zero-nonzero-two-groups-k6": ('0x1.7a1f5a25303e6p+0', '0x1.10b24317bdd01p-19'),
    "all-ones-two-groups-k6": ('0x1.7704575c72fecp+0', '0x1.0c6f7a0b5ed8dp-19'),
    "zero-nonzero-two-groups-k9": ('0x1.197c3527c55f1p+1', '0x1.9370ef88d2ae9p-19'),
    "all-ones-two-groups-k9": ('0x1.19434185563f2p+1', '0x1.92a737110e454p-19'),
    "zero-nonzero-two-groups-k12": ('0x1.770bea3bcf886p+1', '0x1.0c80420f7fd0dp-18'),
    "all-ones-two-groups-k12": ('0x1.7704575c72fecp+1', '0x1.0c6f7a0b5ed8dp-18'),
}

UNIFORM_PRIOR_SMALL_PINNED = {
    "hetero-k1": ('0x1.999999999999ap-5', '0x0.0p+0'),
    "homog-advanced-k1": ('0x1.999999999999ap-3', '0x1.ad7f29abcaf48p-24'),
    "hetero-k2": ('0x1.1503f0f71569dp-3', '0x1.1e54c672874dap-24'),
    "homog-advanced-k2": ('0x1.378d1450cae97p-1', '0x1.ad7f29abcaf48p-21'),
    "hetero-k3": ('0x1.0fddc61e63b76p-2', '0x1.dc43c98248a1dp-20'),
    "homog-advanced-k3": ('0x1.b4bd5398079c4p-1', '0x1.141ae3ee702f7p-20'),
    "hetero-k4": ('0x1.cbcb69b16f9bbp-2', '0x1.bbd03397eb520p-20'),
    "homog-advanced-k4": ('0x1.0c13962db9c76p+0', '0x1.33ce5554b7d9ep-20'),
    "hetero-k5": ('0x1.624b5a84c9357p-1', '0x1.bb59f977872dfp-20'),
    "homog-advanced-k5": ('0x1.370a75087b282p+0', '0x1.490cc726b6541p-20'),
    "hetero-k6": ('0x1.ff3d38f44aa0fp-1', '0x1.a6ade7fe6635bp-19'),
    "homog-advanced-k6": ('0x1.5d876cec38eb8p+0', '0x1.59fbc51fb8d32p-20'),
    "hetero-k7": ('0x1.5f10e96585a24p+0', '0x1.a359e426ba110p-19'),
    "homog-advanced-k7": ('0x1.80ae0aae6d6ebp+0', '0x1.6903946998f4cp-20'),
    "hetero-k8": ('0x1.64cd5b8d3f869p+0', '0x1.a8719ea3bf883p-19'),
    "homog-advanced-k8": ('0x1.a132323e727fcp+0', '0x1.772d931550286p-20'),
}

ORACLE_PINNED = {
    "rr-zero-nonzero-k3": ('0x1.19d736f108b52p-2', '0x1.f58a78556e2b4p-3'),
    "rr-all-ones-k3": ('0x1.8b97b25101ac6p-3', '0x1.6003ebe63ca04p-3'),
    "rr-zero-few-k3": ('0x1.55d8942e2cfe2p-4', '0x1.11b8e6a6e1a81p-3'),
    "rr-few-many-k3": ('0x1.3af106c66c444p-5', '0x1.096aa8fcd1082p-4'),
    "leaky-zero-nonzero-k3": ('0x1.99e0196711738p-6', '0x1.746db28fd000bp-5'),
    "leaky-all-ones-k3": ('0x1.0ab92b7e9b750p-5', '0x1.074bea8bdee11p-8'),
    "leaky-zero-few-k3": ('0x1.79e872a09c177p-9', '0x1.81db96704e851p-7'),
    "leaky-few-many-k3": ('0x1.ad5cba0468b0ep-9', '0x1.0befa8a785b48p-7'),
    "rr-zero-nonzero-k5": ('0x1.fecc2451ca992p-3', '0x1.1df512b17d4afp-2'),
    "rr-all-ones-k5": ('0x1.10e81edba9a51p-2', '0x1.c3ad09ff089dcp-3'),
    "rr-zero-few-k5": ('0x1.790b9b3cd1ce6p-2', '0x1.75478a6e7345ap-2'),
    "rr-few-many-k5": ('0x1.f6a5dc28b8ec0p-6', '0x1.9b8d0b5d6a15bp-6'),
    "leaky-zero-nonzero-k5": ('0x1.5728fec2c705bp-3', '0x1.a77bff8ab0298p-3'),
    "leaky-all-ones-k5": ('0x1.928fbc8e2cc0fp-3', '0x1.26b9941a1bc9dp-3'),
    "leaky-zero-few-k5": ('0x1.6b4bc1a362972p-2', '0x1.69ad12ac5629fp-2'),
    "leaky-few-many-k5": ('0x1.08c5402f5b04bp-9', '0x1.728c46fe420e3p-6'),
    "rr-zero-nonzero-k8": ('0x1.6c531ebb6d0d3p-2', '0x1.841011177b320p-2'),
    "rr-all-ones-k8": ('0x1.81fded299acedp-2', '0x1.67a84c6ae0130p-2'),
    "rr-zero-few-k8": ('0x1.bb5935abcd374p-2', '0x1.9aaba3b13c4edp-2'),
    "rr-few-many-k8": ('0x1.3a0bdb24fb12dp-3', '0x1.5d2b0dc03d3aap-3'),
    "leaky-zero-nonzero-k8": ('0x1.10b4cf8ba6294p-2', '0x1.379a6dd855484p-2'),
    "leaky-all-ones-k8": ('0x1.35ec7aee03c94p-2', '0x1.0cfca81418f1ap-2'),
    "leaky-zero-few-k8": ('0x1.e703696c57c1fp-3', '0x1.42a4036ac8374p-2'),
    "leaky-few-many-k8": ('0x1.5a97bd8e82cfdp-5', '0x1.4f9e3fe5c207cp-4'),
}


def test_hdp_guarantee_bits():
    got = {name: as_hex(hdp_guarantee(*case)) for name, case in hdp_cases().items()}
    assert got == HDP_PINNED


def test_uniform_prior_bound_bits():
    got = {name: as_hex(uniform_prior_bound(*case)) for name, case in uniform_prior_cases().items()}
    assert got == UNIFORM_PRIOR_PINNED


def test_advanced_uniform_prior_bound_at_k20000_within_budget():
    # The budget fails an O(k^2) composition of each tail on its own, which
    # takes about a minute at this k on a 2-core Xeon.
    start = time.perf_counter()
    got = uniform_prior_bound(MechanismSequence.homogeneous(0.01, 1e-9, 20000), Advanced(1e-6))
    assert time.perf_counter() - start < 10.0
    assert as_hex(got) == ("0x1.0f57f07cd100bp+2", "0x1.711947cfa26a3p-17")


def test_advanced_uniform_prior_bound_at_k100000_within_budget():
    # About 0.3 s on a 2-core Xeon; composing each tail on its own, O(k^2), would take
    # about 25 times the minute it takes at k = 20,000.
    start = time.perf_counter()
    got = uniform_prior_bound(MechanismSequence.homogeneous(0.01, 1e-9, 100_000), Advanced(1e-6))
    assert time.perf_counter() - start < 10.0
    assert as_hex(got) == ("0x1.5b8b54d697207p+3", "0x1.abd1aa821f299p-15")


def test_small_path_bits():
    got = {name: as_hex(hdp_guarantee(*case)) for name, case in small_path_cases().items()}
    assert got == SMALL_PATH_PINNED


def test_uniform_prior_bound_bits_to_k8():
    got = {}
    for k in range(1, 9):
        got[f"hetero-k{k}"] = as_hex(uniform_prior_bound(hetero(k), Simple()))
        got[f"homog-advanced-k{k}"] = as_hex(uniform_prior_bound(homog(k, 0.2, 1e-7), Advanced(1e-6)))
    assert got == UNIFORM_PRIOR_SMALL_PINNED


def test_required_delta_bits():
    got = {}
    for name, case in oracle_cases().items():
        report = verify_hdp(*case)
        got[name] = (report.delta_needed_fwd.hex(), report.delta_needed_rev.hex())
    assert got == ORACLE_PINNED
