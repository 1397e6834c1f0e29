"""Rule registry for reprolint.

Each rule carries an error code, a one-line summary, a fix-it hint, and a
path scope.  Scopes are expressed as repo-relative POSIX path prefixes; an
empty ``include`` tuple means the rule applies everywhere.  The scopes mirror
the determinism/parity contract documented in README.md: ordering rules bite
in the engine packages, allocation rules bite only in the per-op hot path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    summary: str
    fixit: str
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """True when ``relpath`` (POSIX, repo-relative) is in this rule's scope."""
        if any(_prefix_match(relpath, p) for p in self.exclude):
            return False
        if not self.include:
            return True
        return any(_prefix_match(relpath, p) for p in self.include)


def _prefix_match(relpath: str, prefix: str) -> bool:
    if relpath == prefix:
        return True
    if not prefix.endswith("/"):
        prefix += "/"
    return relpath.startswith(prefix)


_HOT_MODULES = (
    "src/repro/core/topk.py",
    "src/repro/core/set_cover.py",
    "src/repro/core/fdrms.py",
)


RULES: dict[str, Rule] = {}


def _register(rule: Rule) -> Rule:
    RULES[rule.code] = rule
    return rule


RPL001 = _register(
    Rule(
        code="RPL001",
        name="unordered-iteration",
        summary=(
            "iteration over a set/dict (or .keys()/.values()/.items()) whose order "
            "is not canonical"
        ),
        fixit="wrap the iterable in sorted(...) or iterate a canonically ordered array",
        include=("src/repro/core/", "src/repro/scenarios/"),
    )
)

RPL002 = _register(
    Rule(
        code="RPL002",
        name="float-equality-on-score",
        summary="exact ==/!= comparison on a score-like float quantity",
        fixit="compare with abs(a - b) <= SCORE_TOL or np.isclose(a, b, atol=SCORE_TOL)",
        include=("src/",),
    )
)

RPL003 = _register(
    Rule(
        code="RPL003",
        name="global-rng",
        summary="global np.random.* / random.* call instead of a passed Generator",
        fixit="thread a numpy Generator through (see repro.utils.rng.resolve_rng)",
    )
)

RPL004 = _register(
    Rule(
        code="RPL004",
        name="per-element-loop",
        summary="per-element Python loop over a numpy array in a hot-path module",
        fixit="replace the index/append loop with a vectorized numpy expression",
        include=_HOT_MODULES,
    )
)

RPL005 = _register(
    Rule(
        code="RPL005",
        name="wall-clock-read",
        summary="wall-clock read outside utils/timing.py and the replay driver",
        fixit="use repro.utils.timing.Stopwatch (perf_counter) or accept a timestamp",
        exclude=("src/repro/utils/timing.py", "src/repro/scenarios/replay.py"),
    )
)

RPL006 = _register(
    Rule(
        code="RPL006",
        name="mutable-default-arg",
        summary="mutable default argument value",
        fixit="default to None and construct the container inside the function",
    )
)

RPL007 = _register(
    Rule(
        code="RPL007",
        name="unordered-digest-input",
        summary="set/dict-ordered data fed into a digest/hash without ordering",
        fixit="sort (sorted(...) / sort_keys=True) before hashing so digests replay",
    )
)

RPL008 = _register(
    Rule(
        code="RPL008",
        name="alloc-in-hot-loop",
        summary="numpy allocation (np.zeros/np.empty/np.concatenate) inside a per-op loop",
        fixit="hoist the allocation out of the loop or reuse a preallocated scratch array",
        include=_HOT_MODULES,
    )
)

#: Meta-rule: malformed suppression pragmas.  Not suppressible and not scoped.
RPL009 = _register(
    Rule(
        code="RPL009",
        name="bad-suppression",
        summary="reprolint suppression pragma without a justification (or unknown code)",
        fixit="write `# reprolint: disable=RPLxxx -- <why this is intentional>`",
    )
)

RPL010 = _register(
    Rule(
        code="RPL010",
        name="non-atomic-write",
        summary=(
            "non-atomic file write (bare open-for-writing / np.savez / "
            ".write_text) in a durability-critical module"
        ),
        fixit=(
            "write a tmp sibling, fsync, then os.replace onto the target "
            "(use repro.persist.atomic)"
        ),
        include=("src/repro/persist/", "src/repro/io.py"),
        # The fault injector corrupts files in place by design.
        exclude=("src/repro/persist/faults.py",),
    )
)


#: Name segments that mark an identifier as score-like for RPL002.
SCORE_SEGMENTS = frozenset(
    {
        "score",
        "scores",
        "tau",
        "taus",
        "omega",
        "thresh",
        "threshold",
        "thresholds",
        "regret",
        "regrets",
        "gain",
        "gains",
        "kth",
    }
)

_SEGMENT_RE = re.compile(r"[a-z0-9]+")


def is_score_like(identifier: str) -> bool:
    """True when any snake_case segment of ``identifier`` is score-like."""
    return any(seg in SCORE_SEGMENTS for seg in _SEGMENT_RE.findall(identifier.lower()))


#: ``np.random.X`` attributes that construct seeded generators (allowed).
ALLOWED_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Module-level ``random.X`` functions that draw from the global stream.
STDLIB_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "triangular",
        "betavariate",
        "paretovariate",
        "vonmisesvariate",
        "weibullvariate",
        "getrandbits",
        "randbytes",
        "seed",
    }
)

#: Dotted call names that read the wall clock (RPL005).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "time.strftime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Dotted call names that allocate fresh numpy arrays (RPL008).
HOT_ALLOC_CALLS = frozenset(
    {
        "np.zeros",
        "np.empty",
        "np.concatenate",
        "numpy.zeros",
        "numpy.empty",
        "numpy.concatenate",
    }
)

#: Dotted call names that write an npy/npz file in place (RPL010).
NONATOMIC_SAVE_CALLS = frozenset(
    {
        "np.save",
        "np.savez",
        "np.savez_compressed",
        "numpy.save",
        "numpy.savez",
        "numpy.savez_compressed",
    }
)

#: ``Path`` convenience writers that replace a file in place (RPL010).
NONATOMIC_WRITE_ATTRS = frozenset({"write_text", "write_bytes"})

#: ``open``-mode characters that make the call a write (RPL010).
WRITE_MODE_CHARS = frozenset("wxa+")

#: Constructors whose results are mutable containers (RPL006).
MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
)

#: hashlib-style digest constructors (RPL007).
DIGEST_CONSTRUCTORS = frozenset(
    {
        "sha1",
        "sha224",
        "sha256",
        "sha384",
        "sha512",
        "sha3_256",
        "sha3_512",
        "md5",
        "blake2b",
        "blake2s",
    }
)

_DIGEST_RECEIVER_RE = re.compile(r"(digest|hash|sha\d*|md5|blake)", re.IGNORECASE)


def is_digest_receiver(identifier: str) -> bool:
    """True when ``identifier`` plausibly names a hashlib digest object."""
    return bool(_DIGEST_RECEIVER_RE.search(identifier))
