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
    ("udp:64", 8): "7644ced902eff0de8de1deab5d49d4b793db2362ec2f3b0eceabb8a773813ab1",
    ("udp:64", 120): "7644ced902eff0de8de1deab5d49d4b793db2362ec2f3b0eceabb8a773813ab1",
    ("udp:1024", 8): "4241faadcdde8bc290a83e6210b8dfa6be447e0ec8bd2f7fb1a1e2dbaf3d6dec",
    ("udp:1024", 120): "4241faadcdde8bc290a83e6210b8dfa6be447e0ec8bd2f7fb1a1e2dbaf3d6dec",
    ("dpdk:64", 8): "877b1e908d4a156395e77ffa9342703bac22a1c187daa45cf50f6a5a94b29e44",
    ("dpdk:64", 120): "877b1e908d4a156395e77ffa9342703bac22a1c187daa45cf50f6a5a94b29e44",
    ("dpdk:1024", 8): "ba96550da5e401a3bbf55e8f914cfffd96f8bbf85f6242e6c18f9efe6e91c2e8",
    ("dpdk:1024", 120): "ba96550da5e401a3bbf55e8f914cfffd96f8bbf85f6242e6c18f9efe6e91c2e8",
    ("rdma:1024", 8): "16ebc45bc4e31d4219c8fb83e685b143f0b9f2e96fa04c07f5169860e0074e07",
    ("rdma:1024", 120): "16ebc45bc4e31d4219c8fb83e685b143f0b9f2e96fa04c07f5169860e0074e07",
    ("redis:a", 8): "e166a698eda2fca988a427b24ab75181117ae96d2dafc09c5fec2a48836b65f7",
    ("redis:a", 120): "0d33533411c9355496f7cc4ff67d460f0623944b7258edd2fc6859d0338f9bdf",
    ("redis:b", 8): "cc0a58c332f87adbdeab33d1065ca9c577b4e172953b94fe46d7c8380c1bcc23",
    ("redis:b", 120): "cc7f3d61aa69f3c5663920b8411c6aa3105d59b5cc92665b13c11d0db7ece86b",
    ("redis:c", 8): "cc1200403c86a5923ec91e84ca19b18888a4dd7faaedf196dc9e508bce196e0e",
    ("redis:c", 120): "7d131f951e6d3440202b1f286715ed3eb5c46f290818dd744bc41e9ad6f27096",
    ("snort:file_image", 8): "e83ed6e73447dade0851ac410b364a00e1d1f764086ce34e842ad85800c3fd31",
    ("snort:file_image", 120): "acc897686d3ff508d5cbc60cfd5730734f42bfc689486febfdce83c70a8a4cd6",
    ("snort:file_flash", 8): "2353289c80f652ca34701e4fa96ae43a726aa04777659162ccb8b96885c9c549",
    ("snort:file_flash", 120): "df9bc177ac8e96a682d08db2a1cf4b2a7cc0b1f00b14142c8757a195e979cace",
    ("snort:file_executable", 8): "74c72aebbc82486310fb0f1b04839cdd3e46e888468078c3408f8f51bf4fbe88",
    ("snort:file_executable", 120): "75372214484b9ba6b5bac1e36867bb2651380ab0257ea910f718e36fb4a681a6",
    ("nat:10k", 8): "f43d34ee5ec248b66da1d35fcc4756e9496f4fcc79a600fc2be51c173a0b8a14",
    ("nat:10k", 120): "cd1d9e2b3d99a935a8f115a76d3d423686188885d4fbcefedd459da011f0d1a4",
    ("nat:1m", 8): "d65411cba6a0f75fd0e199b3d114b994c0971fb6cecac88c75be35ce6195f565",
    ("nat:1m", 120): "73390c5e715cc4b81c0142b70fc5d4e34ec7bacfec67734ced2c6b16dadfc30c",
    ("bm25:100", 8): "b75de098768d27bf79f20c9df9719ae99fc48508cd502b81155c81348edf7558",
    ("bm25:100", 120): "74c24823002bcfc4d8e08e5293f0541441f6a19676d7690a0346855c9a0af8e4",
    ("bm25:1k", 8): "8adfcb1e446433f74ee167c8a9a9254cfbff9c97e9f5895c74e3c537b2c5285e",
    ("bm25:1k", 120): "217edd24fcb00e9b4ef595b08d27df9ae4662705d1245eb7274faafb6dc9989e",
    ("mica:4", 8): "67436186240d8a2a511a3f1f48fd8592c109ceee80e4d6fcd2252cbfa1a9fff6",
    ("mica:4", 120): "425148a74b09de7e80f0484505f4d76c3c43df2de4cad6111ed6fd6319af6bea",
    ("mica:32", 8): "12bb16a4af40d3ab77c1be36670ffaa42117b8dc60f595e9c5c72bc212b06b94",
    ("mica:32", 120): "29674ad9bcfb41e9ca4e3172954736802b286e2d547542c01f4216a1975bcf69",
    ("fio:read", 8): "c5a414b7493ee848b1e0972af6221c1356d7366e752460f7885648a7b41af42e",
    ("fio:read", 120): "c5a414b7493ee848b1e0972af6221c1356d7366e752460f7885648a7b41af42e",
    ("fio:write", 8): "4d3c9a6d9c8cee0a3d3bc523a72c55182a903d32e9689148384dd6365391a6cb",
    ("fio:write", 120): "4d3c9a6d9c8cee0a3d3bc523a72c55182a903d32e9689148384dd6365391a6cb",
    ("crypto:aes", 8): "1f7eb1b8bb64ba10bf394c95e7cc2bb45fe9fbf9c228c9cebf59681b2429d24c",
    ("crypto:aes", 120): "1f7eb1b8bb64ba10bf394c95e7cc2bb45fe9fbf9c228c9cebf59681b2429d24c",
    ("crypto:rsa", 8): "b7de0aff816d35e0d43dbcec5f2ed830d3b29b7a762d9c646d0c3dd0825f6914",
    ("crypto:rsa", 120): "b7de0aff816d35e0d43dbcec5f2ed830d3b29b7a762d9c646d0c3dd0825f6914",
    ("crypto:sha1", 8): "0f53fb1ef36ac00af0ca229edcd3af2395c750746580605d0c916de5815661c3",
    ("crypto:sha1", 120): "0f53fb1ef36ac00af0ca229edcd3af2395c750746580605d0c916de5815661c3",
    ("rem:file_image", 8): "457bdfd2e1a6265e7c777847ad3f09f8af88e93258b360ca5994991f42a71753",
    ("rem:file_image", 120): "dc6cd76a8aa57fddb41760a664a844b48d2c34cd1bbba584135cba3f870421f7",
    ("rem:file_flash", 8): "24478931ce25ad599fd17796403905fc6adacfcd7568aacf526a396a37bb3053",
    ("rem:file_flash", 120): "29ee43cf709d74245c46a1ac1de524d366177c740264dd33616e705604f53f4b",
    ("rem:file_executable", 8): "009ad790f17ee2768377058c7e15e48b68900bde0ffaa20272f792a743c17d3c",
    ("rem:file_executable", 120): "335a77e032e96ef321b0ed7734b9c87e1b6a6d8ab3618a2c672dbaf18a09dd4b",
    ("rem:file_image@mtu", 8): "85391abe210f95fbdda25dee3c39733a8ef48da82d76f6f430a4f6b141a2fa0f",
    ("rem:file_image@mtu", 120): "616e5b0aa10c37324903fa09c77afad4d0e27dbb3ec245d0bf0e4ebc4179fddd",
    ("rem:file_flash@mtu", 8): "a8bcdcf20f13ca8511d22c069f0ce301530a2c1dbd1311b4d8c3d55bb8ed8ac8",
    ("rem:file_flash@mtu", 120): "664e15a48440dbf272bfc93c7a7a97d84da87859e3de97c308e3c09fcd459414",
    ("rem:file_executable@mtu", 8): "fbc46003ba371fd0cd6a61d8822ebd75d2070e4d6ccfba015e9278706dd3fba4",
    ("rem:file_executable@mtu", 120): "0dcd5599c86c576f83e4de43a3449b0c99872f70b731663ef13906d2d7f020e8",
    ("compression:app", 8): "199fcb8492a9e2794f96c1351273ba622c11776b086714a1aad80a12e2300272",
    ("compression:app", 120): "8e9308d6c502fc3b975f9c2bc84a4dcb236cb30b01c9cfca63f5aefe830deb03",
    ("compression:txt", 8): "6e7054b9446d2d772e4dd64e020439f51a003cc6a69c1d1f1a7dbdb7058da0c3",
    ("compression:txt", 120): "88db9a8f069bd159b80df8faca1af4a7f1ef61190f716e2d6ef634e6a920f6f9",
    ("ovs:10", 8): "f27ac3c1c88b8c4c45f4272decb5d41b0b2910eea919a7265cc5cd94f84dd7e8",
    ("ovs:10", 120): "f27ac3c1c88b8c4c45f4272decb5d41b0b2910eea919a7265cc5cd94f84dd7e8",
    ("ovs:100", 8): "0c37479c25f5605206088482960341087aa156a306da3b086c16a9795e21612f",
    ("ovs:100", 120): "0c37479c25f5605206088482960341087aa156a306da3b086c16a9795e21612f",
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
