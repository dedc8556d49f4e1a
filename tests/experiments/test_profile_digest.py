"""Every profile fixture is pinned by a canonical digest.

The builders in ``experiments/profiles.py`` run real function code
(regex scans, DEFLATE, KV stores, MICA batches) to draw their work
samples, and the fast paths that replace their per-item loops must leave
every profile exactly as it was.  This pins a sha256 of each
``_BUILDERS`` profile at two sample counts: 8 and 120, so that fio's
``per_op`` batching (``samples // 50``) and compression's chunk cap
(``min(samples, 12)``) each take both branches.

The digest hashes a canonical text of the profile's field values, not a
pickle: integers in decimal, floats as ``float.hex``, and each
``WorkUnits`` as its (kind, count) entries in sorted key order.  So it
holds across Python 3.10-3.12 and numpy scalar types, and a single
last-bit change to any work count changes it.
"""

import dataclasses
import hashlib
import numbers

import pytest

from repro.core.work import WorkUnits
from repro.experiments.profiles import _BUILDERS

SAMPLE_COUNTS = (8, 120)


def _canonical(value) -> str:
    if isinstance(value, WorkUnits):
        return "W{" + ",".join(f"{kind!r}:{_canonical(count)}"
                               for kind, count in sorted(value.items())) + "}"
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, numbers.Integral):
        return f"i{int(value)}"
    if isinstance(value, numbers.Real):
        return "f" + float.hex(float(value))
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{key!r}:{_canonical(item)}"
                              for key, item in sorted(value.items())) + "}"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def profile_digest(profile) -> str:
    text = ";".join(f"{field.name}={_canonical(getattr(profile, field.name))}"
                    for field in dataclasses.fields(profile))
    return hashlib.sha256(text.encode()).hexdigest()


PROFILE_SHA256 = {
    ("udp:64", 8): "d77b4a48945bc79e0fdbef19b9f4c7628bb3ce524b11986ba26fa1fd403c76f5",
    ("udp:64", 120): "d77b4a48945bc79e0fdbef19b9f4c7628bb3ce524b11986ba26fa1fd403c76f5",
    ("udp:1024", 8): "a1a2f3017c4a5d0d89c02c88f4e06d07884f7a448bceb574152d4b7cfb1dd4a3",
    ("udp:1024", 120): "a1a2f3017c4a5d0d89c02c88f4e06d07884f7a448bceb574152d4b7cfb1dd4a3",
    ("dpdk:64", 8): "c35f35ce08ec4d27f8b4d88f687155ede6bf3f7de48fc95cd20c706a7f991138",
    ("dpdk:64", 120): "c35f35ce08ec4d27f8b4d88f687155ede6bf3f7de48fc95cd20c706a7f991138",
    ("dpdk:1024", 8): "d9552ada25231179dbf69c00365ab417a763a206ee1e396d1449ba96b03a2ac1",
    ("dpdk:1024", 120): "d9552ada25231179dbf69c00365ab417a763a206ee1e396d1449ba96b03a2ac1",
    ("rdma:1024", 8): "b491b6cde4a6a8d2d22ce58ffb83545ec7be4253e7ae88f9dd0a46e2e7b8a52e",
    ("rdma:1024", 120): "b491b6cde4a6a8d2d22ce58ffb83545ec7be4253e7ae88f9dd0a46e2e7b8a52e",
    ("redis:a", 8): "3c39014d41c2aea476494bd311d88fdaa002e1a5d01b11a99c32468a222eb1b3",
    ("redis:a", 120): "89647e32d5a1c2b5961f637dfca3fa5c241385b361b14d622de27890b4e7491e",
    ("redis:b", 8): "b09a31b92a1be8efc5a331d2587da090421b077c4cd936a8bd40f80e6d3cb809",
    ("redis:b", 120): "2adc6d9fb50d0cf81d57ebd55685ce40055b1cabad37070441bac68f9067c996",
    ("redis:c", 8): "86869ce6ed3829dfcde3d0e3b4f5b172862c302d22ce33238216536a08ecd5b9",
    ("redis:c", 120): "0257f94085d98bac9f604489f043261f3683e904ff09b4153b86d4c1546b54d3",
    ("snort:file_image", 8): "06bd6f1dd761bcfca6e6008c8967ce02cff6f7e0bca305b088097b8fef549b40",
    ("snort:file_image", 120): "5aa0cea2aca295c088a7cae8ec76ef03c910fd5fa0ae7804b56f263764772f57",
    ("snort:file_flash", 8): "18cb24ed19f6e7e4b138f94cab1f96042351535c35a606fae0061939d7b20ea0",
    ("snort:file_flash", 120): "5cdeee8134120980459e869b4f4b42edc3d78787ec11ac60f8d677a31ecf1774",
    ("snort:file_executable", 8): "0bb9ba0ce4ec0c89f42e343271daba92f9929f4ebeac93405c4c9a1fdd970790",
    ("snort:file_executable", 120): "a29b1703229ae79a31c6d6e16de83fa0a974f72c876ecca8e4150ba953819a5d",
    ("nat:10k", 8): "9425a22043cbd8cb8b7b2cc7dadb6fd974179053e787d0971a2e109d7c8357ca",
    ("nat:10k", 120): "bdfbf371a0d374efe3eaf61db6b11573d7f2e377c7b0793a7c24fea83b334ec2",
    ("nat:1m", 8): "6cb9298d39a11c288bf7e3e955402b8f465f471ee1511aa0627563125f983e9a",
    ("nat:1m", 120): "c31977e1abc68b7c284d1b407c40df12de237e0668602bf88a3e003b5576dc4d",
    ("bm25:100", 8): "71ba7b232169f6e6e9d4fbf5839a5bb06778a5f80b0145cba5ea0ec8cb6b339f",
    ("bm25:100", 120): "39eaa6e232ccaebeb876b4208a9ca72811935155c9927da7503aa8b18bbe7ff8",
    ("bm25:1k", 8): "70db855e7810117ea6805b86aa6e068639f5fd9d478fc710839ca40055ecc931",
    ("bm25:1k", 120): "f022506dfef5a3d01a4ff5ed5740fb9b4a83d42856fda60b93316661d0e93ae7",
    ("mica:4", 8): "8a97f41691ff6f131d2c8ec2af214632421ed7bd00801575aa07f766b6669349",
    ("mica:4", 120): "8e0f55e27a2966d87da3dae382c844827aac356f348bbf5cb74a253f05b6fd11",
    ("mica:32", 8): "d72ceab3bec184323e43f38bc0e4b5b8857a3c076579d823a97e729e694d3e97",
    ("mica:32", 120): "3b381255165369ef450dac8f86d7423d53c9835b4423ae0dbf11e6f36da8ffa9",
    ("fio:read", 8): "19bbe9c228d4c9cf29891189a555baf8450d4ad791aa0cf9982c6ac872d3c920",
    ("fio:read", 120): "19bbe9c228d4c9cf29891189a555baf8450d4ad791aa0cf9982c6ac872d3c920",
    ("fio:write", 8): "fd41e384dde2d2219b2f6b686bfffbeefa19f5c2e4957abb33396e86779ec813",
    ("fio:write", 120): "fd41e384dde2d2219b2f6b686bfffbeefa19f5c2e4957abb33396e86779ec813",
    ("crypto:aes", 8): "244600950c5f725a6e12d32ba36004d87bc3b89f7d4f43f72853a0801043695a",
    ("crypto:aes", 120): "244600950c5f725a6e12d32ba36004d87bc3b89f7d4f43f72853a0801043695a",
    ("crypto:rsa", 8): "3f5b8b3ba10988d185261e90216751413556a62edecb1a699b72f6e1a3845d2e",
    ("crypto:rsa", 120): "3f5b8b3ba10988d185261e90216751413556a62edecb1a699b72f6e1a3845d2e",
    ("crypto:sha1", 8): "13c95af1d22212feabbb6a9122483ee18e500163087fb78620fa16c675d94cf8",
    ("crypto:sha1", 120): "13c95af1d22212feabbb6a9122483ee18e500163087fb78620fa16c675d94cf8",
    ("rem:file_image", 8): "2c737c3e88cc6551102145a5b20f4a00df96ee3f473235163da55fe5531b2939",
    ("rem:file_image", 120): "466163d4702612a900ba470b1d33be05cb7239545e245da7030492b8b7a16867",
    ("rem:file_flash", 8): "e3c65fe75990355b75206f9f5c7a8e0b56535423aef596d06f8704e9e1e0b6d7",
    ("rem:file_flash", 120): "9661020ca3f9a96543470d2a817fa0042f46c011d34389222d0d496c2239df55",
    ("rem:file_executable", 8): "7f96e7f87f8ef2ace81fe12c7f6f6baec708b2cb57d3032b1d21230b2820cbb0",
    ("rem:file_executable", 120): "4fa90fdd54f6c815c239a97f68cb39bb3d1e012ced1c0f8ecfe7a9e87841c476",
    ("rem:file_image@mtu", 8): "c5cb520db65691987a7274543a321435b4014cc68e6c0572d8445a8fa56455c8",
    ("rem:file_image@mtu", 120): "30acafa065364ce2de5397732f254725bba0472bb17f37b44d5ca546286b2549",
    ("rem:file_flash@mtu", 8): "ea353028360ce135ec90e10c4466794e6ef984eb6fe6cd62fe2fede7077aebdd",
    ("rem:file_flash@mtu", 120): "3896b296e8aa8e518ec6057cf5d35873cedf32c363232b36863105d440da7d83",
    ("rem:file_executable@mtu", 8): "a6de0a573bf6ce3587d02ce37f4f5657e134736e33904662ddc58a55fd961019",
    ("rem:file_executable@mtu", 120): "e532f444900da35a316bcf171b89ead610ec25120865769c915d54b3daad6cd6",
    ("compression:app", 8): "3c3c8ff8688bf3b54282ed5ce3aecac7e95fc2c0401756a55672148174ecd6e4",
    ("compression:app", 120): "feac193f02dcf770df27b2364058e87e5f42b14e8438780592f086c25e7b643d",
    ("compression:txt", 8): "5e11fe055b48b382bacd6dedbe56ace4341c713b03f2e440beb2445686c422ff",
    ("compression:txt", 120): "8910eb0348ea91f6a63c330bb9a1fd11e4af02c4ddd6d73d73de6f5ae75687d0",
    ("decompression:app", 8): "6afa40e6148808af03dafeeda803f822764b4d0d937396cf53e852ec14266c33",
    ("decompression:app", 120): "d23e89fc6a397566032434e5934baa196a3433552f5ed087467f28260cbca3c5",
    ("decompression:txt", 8): "2b936a2769aa2b37f1ed8084d94bb48d22bd511e7b8730f13eb707f9ac2cc635",
    ("decompression:txt", 120): "60f80d5a32768b21f7098b2a90f01a62fa69a23de2ce7e9e5b1abd1e62e277f6",
    ("ipsec:encap", 8): "0192b94e64d4351d772b3c3651be88acd0ee8759c3983bbf35e5bfded8b6eee9",
    ("ipsec:encap", 120): "43a4f653844ec7685010962d976682459390642b5169b6767c4f760fefa5024e",
    ("ipsec:decap", 8): "ff79d3cdd01a07eedab34612acc03082e7fa31425eef00b900ef45c1e36616f7",
    ("ipsec:decap", 120): "df2daf46b1eb35da968c8d3e1b2d7b9bcc449ce8bdd814bce01f404ff99028b5",
    ("ovs:10", 8): "41a9299f8977c4e726e7b430fc230f062d96996928dd24160d625fe9295994dc",
    ("ovs:10", 120): "41a9299f8977c4e726e7b430fc230f062d96996928dd24160d625fe9295994dc",
    ("ovs:100", 8): "9fe695b3092e1c249e11cf6cc3aef11a909825bf95304293423793e8ed399d42",
    ("ovs:100", 120): "9fe695b3092e1c249e11cf6cc3aef11a909825bf95304293423793e8ed399d42",
}


def test_every_builder_is_pinned():
    assert set(PROFILE_SHA256) == {(key, samples) for key in _BUILDERS
                                   for samples in SAMPLE_COUNTS}


@pytest.mark.parametrize("key, samples", sorted(PROFILE_SHA256))
def test_profile_matches_pinned_digest(key, samples):
    # The builder itself, not get_profile: a profile some other test
    # cached must not stand in for a fresh build.
    assert profile_digest(_BUILDERS[key](samples)) == PROFILE_SHA256[key, samples]


class TestCanonicalForm:
    def test_last_bit_of_a_work_count_changes_the_digest(self):
        a = WorkUnits({"x": 0.1 + 0.2})
        b = WorkUnits({"x": 0.3})
        assert _canonical(a) != _canonical(b)

    def test_entry_order_does_not(self):
        assert (_canonical(WorkUnits({"a": 1.0, "b": 2.0}))
                == _canonical(WorkUnits({"b": 2.0, "a": 1.0})))

    def test_int_and_float_counts_differ(self):
        assert _canonical(WorkUnits({"x": 1})) != _canonical(WorkUnits({"x": 1.0}))

    def test_numpy_scalars_read_as_python_numbers(self):
        np = pytest.importorskip("numpy")
        assert _canonical(np.float64(0.5)) == _canonical(0.5)
        assert _canonical(np.int64(3)) == _canonical(3)
