"""Bieberbach groups of diagonal type over Z^n.

A group is generated by k elements B_i L_{b_i}: B_i acts diagonally by signs
(coordinate j is negated exactly when the character of coordinate j contains
i) and the translation parts b_i lie in {0, 1/2}^n.  They are stored per
coordinate as a tag, the mask of the generators with a half entry there; a
product element B_I has one where chi_tag(I) = -1.  The rows of numerators
that BGF files hold are a view of the tags.

Per element I, s is the fixed dimension n_B and t the number of fixed
coordinates whose tag negates I, the half-marked ones.  Both depend only on
the (character, tag) counts and come from Walsh-Hadamard transforms: s from
the character counts, t from the counts of each tag and character ^ tag.
Torsion-freeness is the condition that every nonidentity element carries a
half translation somewhere in its fixed space, t > 0.  The joint histogram
of (s, t) over the 2^k elements -- the Sunada numbers c_{s,t} -- decides
isospectrality on p-forms for all p: two diagonal-type groups are Sunada
isospectral iff the histograms agree.

The module also provides the generic pair construction (a representation and
its flip carrying matching translation recipes), fixed 24-dimensional and
7-dimensional example families, a deterministic translation search for an
arbitrary representation (each group built by BieberbachGroup.from_tags),
and the BGF text format for group files.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import flip as flip_mod
from .chargroup import check_mask, check_rank, display_order, walsh
from .diagrep import DiagonalRep, fixed_dims
from .errors import CapabilityError


@dataclass(frozen=True)
class BieberbachGroup:
    """Diagonal-type crystallographic group data.

    coord_chars[j] is the character mask of coordinate j+1 (bit i-1 set
    exactly when generator i negates the coordinate); tags[j] is its tag
    (bit i set exactly when (b_{i+1})_{j+1} = 1/2).

    The constructor validates shapes only; torsion-freeness is a separate
    check (is_torsion_free), since non-Bieberbach data is useful as
    counterexample input.
    """

    k: int
    coord_chars: tuple[int, ...]
    tags: tuple[int, ...]

    def __post_init__(self):
        check_rank(self.k)
        if not self.coord_chars:
            raise ValueError("need at least one coordinate")
        if len(self.tags) != self.n:
            raise ValueError(f"expected {self.n} tags, one per coordinate")
        for mask in (*self.coord_chars, *self.tags):
            check_mask(mask, self.k)

    @property
    def n(self) -> int:
        return len(self.coord_chars)

    @cached_property
    def gen_translations(self) -> tuple[tuple[int, ...], ...]:
        """gen_translations[i][j] is the numerator (0 or 1) of the half
        coordinate (b_{i+1})_{j+1}: the BGF rows, read off the tags."""
        return tuple(tuple(tag >> i & 1 for tag in self.tags) for i in range(self.k))

    @cached_property
    def rep(self) -> DiagonalRep:
        q = [0] * (1 << self.k)
        for c in self.coord_chars:
            q[c] += 1
        return DiagonalRep(self.k, tuple(q))

    @cached_property
    def _fixed_halves(self) -> tuple[tuple[int, int], ...]:
        """(s, t) for every element I, by mask.  A coordinate with character c
        and tag m counts towards t when (1 + chi_c(I))(1 - chi_m(I)) / 4 = 1,
        and the product expands to 1 + chi_c - chi_m - chi_{c^m}.  So with h
        counting each coordinate's tag and its c ^ m, t = (2s - walsh(h)) / 4."""
        h = [0] * (1 << self.k)
        for c, tag in zip(self.coord_chars, self.tags):
            h[tag] += 1
            h[c ^ tag] += 1
        fixed = fixed_dims(self.rep)
        return tuple((s, (2 * s - w) >> 2) for s, w in zip(fixed, walsh(h)))

    @classmethod
    def from_tags(cls, rep: DiagonalRep, heads, order=None) -> "BieberbachGroup":
        """The group on rep's coordinates in blocks, one per mask of order
        (distinct masks covering the support; display order by default), in
        which block m opens with the tags heads[m], every other tag being 0."""
        k = rep.k
        if order is None:
            order = display_order(k)
        elif (len(set(order)) < len(order) or not all(0 <= m < 1 << k for m in order)
              or not set(rep.support()) <= set(order)):
            raise ValueError(f"block order {order} is not distinct {k}-bit masks "
                             f"covering the support {rep.support()}")
        chars, tags = [], []
        for m in order:
            head = heads.get(m, [])
            if len(head) > rep.q[m] or any(tag >> k for tag in head):
                raise ValueError(f"head tags {head} do not fit the block of character {m}")
            chars += [m] * rep.q[m]
            tags += [*head, *[0] * (rep.q[m] - len(head))]
        return cls(k, tuple(chars), tuple(tags))


class TorsionCheck(NamedTuple):
    ok: bool
    witness: int | None  # a violating element mask when not torsion-free


def is_torsion_free(group: BieberbachGroup) -> TorsionCheck:
    """Every nonidentity element must carry a half entry inside its fixed
    space (t > 0); the witness is the least element with t = 0."""
    witness = next((mask for mask, (_, t) in enumerate(group._fixed_halves) if mask and not t),
                   None)
    return TorsionCheck(witness is None, witness)


def sunada_table(group: BieberbachGroup) -> dict[tuple[int, int], int]:
    """Joint histogram of (n_B, n_{B,1/2}) over all 2^k elements: for element
    I, s counts the coordinates whose character fixes I and t those of them
    whose tag negates I.  The identity contributes (n, 0); renderers may
    suppress that row, the comparison never does."""
    return dict(Counter(group._fixed_halves))


def is_sunada_isospectral(a: BieberbachGroup, b: BieberbachGroup) -> bool:
    """Equality of Sunada tables decides isospectrality on p-forms for all p."""
    if a.n != b.n:
        raise ValueError("groups must act on the same dimension")
    return sunada_table(a) == sunada_table(b)


# -- the generic isospectral pair --------------------------------------------

def _main_rep(k: int, n: int) -> DiagonalRep:
    q = [0] * (1 << k)
    q[1] = 1 << (k - 2)                      # chi_1
    for mask in range(1 << k):
        if mask & 2 and not mask & 1:        # 2 in I, 1 not in I
            q[mask] = 2
    q[4] += n - 3 * (1 << (k - 2))           # chi_3 absorbs the slack
    return DiagonalRep(k, tuple(q))


def _main_block_order(k: int) -> tuple[int, ...]:
    """Block layout of the pair construction: chi_1, then the other
    characters containing 1 but not 2, then those containing 2 but not 1,
    then chi_3, then everything else (display order within each group).
    In this layout the printed invariant tables of the 8-dimensional example
    come out verbatim."""
    disp = display_order(k)
    first = [m for m in disp if m & 1 and not m & 2 and m != 1]
    second = [m for m in disp if m & 2 and not m & 1]
    head = [0, 1] + first + second + [4]
    placed = set(head)
    return tuple(head + [m for m in disp if m not in placed])


def construct_main_pair(k: int, n: int) -> tuple[BieberbachGroup, BieberbachGroup]:
    """The generic Sunada-isospectral pair in rank k >= 3 and dimension
    n >= 3*2^(k-2) + 1: holonomy 2^(k-2) chi_1 + sum_{2 in I, 1 notin I} 2 chi_I
    + q chi_3 (q = n - 3*2^(k-2)) and its flip, with the standard half-entry
    placement making both torsion-free.
    """
    if k < 3:
        raise ValueError("pair construction needs k >= 3")
    check_rank(k)       # before any 2^k-entry vector is built
    q = n - 3 * (1 << (k - 2))
    if q < 1:
        raise ValueError(f"pair construction needs n >= {3 * (1 << (k - 2)) + 1} for k={k}")
    rho = _main_rep(k, n)
    outcome = flip_mod.apply_flip(rho, flip_mod.FlipSpec(1, 2))
    assert outcome.applicable and outcome.shift == 1
    # b_1 heads the chi_2 block, b_2 the chi_23 and chi_3 blocks, and b_m (m >= 3)
    # sits on coordinate m-2 of the chi_1 block
    heads = {2: [1], 6: [2], 4: [2], 1: [1 << (m - 1) for m in range(3, k + 1)]}
    order = _main_block_order(k)
    gamma, gamma_prime = (BieberbachGroup.from_tags(r, heads, order) for r in (rho, outcome.rep))
    for g in (gamma, gamma_prime):
        check = is_torsion_free(g)
        assert check.ok, f"construction lost torsion-freeness at element {check.witness}"
    return gamma, gamma_prime


# -- the eight 24-dimensional groups -----------------------------------------

# multiplicities [q_1, q_2, q_3, q_12, q_13, q_23, q_123]; q_0 = 0 throughout
FAMILY24_REPS = (
    (10, 6, 3, 2, 1, 1, 1),
    (10, 6, 2, 2, 2, 2, 0),
    (10, 5, 4, 3, 0, 1, 1),
    (10, 4, 4, 4, 0, 2, 0),
    (9, 7, 4, 2, 1, 1, 0),
    (9, 6, 5, 3, 0, 1, 0),
    (8, 8, 4, 2, 2, 0, 0),
    (8, 6, 6, 4, 0, 0, 0),
)


def construct_family24(j: int) -> BieberbachGroup:
    """Member j (1..8) of the 24-dimensional Sunada-isospectral family with
    holonomy Z_2^3.

    All eight share one half-entry scheme, placed at the first coordinate of
    a block: b_1 at the chi_3 and chi_12 blocks, b_2 at the chi_3 block and
    b_3 at the chi_1 and chi_2 blocks.  Torsion-freeness needs exactly
    q_1, q_2, q_3, q_12 > 0, which holds for every member.

    Note on the published description of this family: its printed nonzero
    Sunada numbers include c_{10,2} = c_{12,2} = 1, which is inconsistent
    with this (its own) translation scheme -- no single scheme can produce
    t = 2 at both s = 10 and s = 12 for all eight members, because the
    element carrying s = 10 varies with j while t is per-element constant.
    The scheme here yields c_{10,1} = c_{12,1} = 1 (and t = 2 only at
    s = 18), identically for all members, so the family is Sunada
    isospectral as claimed.
    """
    if not 1 <= j <= 8:
        raise ValueError("family index must be in 1..8")
    rep = DiagonalRep.from_display(3, FAMILY24_REPS[j - 1])
    group = BieberbachGroup.from_tags(rep, {4: [0b011], 3: [0b001], 1: [0b100], 2: [0b100]})
    assert is_torsion_free(group).ok
    return group


# -- the 7-dimensional rank-4 pair -------------------------------------------

def construct_dim7_pair() -> tuple[BieberbachGroup, BieberbachGroup]:
    """The 7-dimensional pair with holonomy Z_2^4: holonomies
    2 chi_1 + chi_2 + chi_3 + chi_4 + chi_23 + chi_24  and
    2 chi_1 + chi_2 + chi_3 + chi_4 + chi_12 + chi_234,
    with the fixed column data (both use the same half positions:
    b_1 at rows 3,5; b_2 at rows 4,5; b_3 at rows 1,5; b_4 at row 6).

    The two Sunada tables agree; the computed nonzero entries are
    c_{5,2} = c_{4,2} = c_{4,1} = c_{3,1} = 2, c_{5,1} = c_{3,2} = c_{1,1} = 1,
    c_{2,1} = 4.  (A published listing of these numbers assigns the symbol
    c_{3,1} two different values; the table computed from the column data
    is the ground truth used here, with c_{3,2} = 1 in place of the
    duplicated c_{3,1} = 1.)
    """
    # rows 1, 3, 4 and 5 head the chi_1, chi_2, chi_3 and chi_4 blocks; row 6
    # heads chi_23 in Gamma and chi_12 in Gamma'
    heads = {1: [0b0100], 2: [0b0001], 4: [0b0010], 8: [0b0111]}
    gamma = BieberbachGroup.from_tags(
        DiagonalRep.from_display(4, (2, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0)),
        {**heads, 6: [0b1000]})
    gamma_prime = BieberbachGroup.from_tags(
        DiagonalRep.from_display(4, (2, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
        {**heads, 3: [0b1000]})
    for g in (gamma, gamma_prime):
        assert is_torsion_free(g).ok
    return gamma, gamma_prime


# -- translation search -------------------------------------------------------

# _negations(k) holds 2^k masks of 2^k bits, 128 KiB at k = 10; search time past 10 is unmeasured
MAX_TRANSLATION_RANK = 10

@lru_cache(maxsize=None)
def _negations(k: int) -> tuple[int, ...]:
    """Per character m, the bitmask of the elements I with chi_m(I) = -1,
    grown one generator at a time: the elements containing generator i+1 are
    those without it shifted by 2^i, and chi_m flips on them when m has i+1."""
    negs = []
    for m in range(1 << k):
        out = 0
        for i in range(k):
            out |= (out ^ ((1 << (1 << i)) - 1) if m >> i & 1 else out) << (1 << i)
        negs.append(out)
    return tuple(negs)


def find_translations(rep: DiagonalRep):
    """Deterministic backtracking search for translation vectors making the
    representation the holonomy of a Bieberbach group; None when no
    assignment of half entries over the block capacities gives a
    torsion-free group.  Ranks above MAX_TRANSLATION_RANK raise
    CapabilityError before any table is built.

    A coordinate in block J with tag m kills fixes[J] & negs[m], and so does
    tag m ^ J, as chi_J = 1 on fixes[J].  The search carries the mask of killed
    elements and branches on the lowest unkilled nonzero element over the
    fresh coordinates that kill it, in (block order, ascending tag) order,
    respecting block capacities and skipping m ^ J after m for J != 0.  That
    is the depth-first order of the element-by-element search that skips
    killed elements, less subtrees that repeat a failed one (placed tags count
    only by their number per block), so the first solution is the same.  The
    tags placed in each block open it, and blocks are laid out in display order.

    Two cuts drop only subtrees without a solution, so that order stays.
    Forward check (the column test of Knuth's Algorithm X, without its
    reordering): an unkilled element needs a new coordinate in a block that
    fixes it, and blocks only fill up, so cut once one lies outside the union
    of fixes[J] over blocks with free slots; at the root this rejects every
    representation with -Id.  Counting cut: a coordinate kills at most
    2^(k-2) elements (2^(k-1) in the trivial block), so cut when more
    elements than that times the free slots are unkilled.
    """
    k = rep.k
    size = 1 << k
    if k > MAX_TRANSLATION_RANK:
        raise CapabilityError(f"translation search is limited to k <= {MAX_TRANSLATION_RANK}")
    if all(v == 0 for m, v in enumerate(rep.q) if m):
        raise ValueError("trivial holonomy: no generators to solve for")
    blocks = [m for m in display_order(k) if rep.q[m] > 0]
    negs = _negations(k)
    fixes = {m: negs[m] ^ ((1 << size) - 1) for m in blocks}
    most = size >> 1 if 0 in fixes else size >> 2
    nonzero = (1 << size) - 2
    placed: dict[int, list[int]] = {m: [] for m in blocks}  # block -> tags in use

    def solve(covered):
        uncovered = nonzero & ~covered
        if not uncovered:
            return True
        open_blocks = [m for m in blocks if len(placed[m]) < rep.q[m]]
        live = 0
        for m in open_blocks:
            live |= fixes[m]
        slots = sum(rep.q[m] - len(placed[m]) for m in open_blocks)
        if uncovered & ~live or uncovered.bit_count() > most * slots:
            return False
        element = (uncovered & -uncovered).bit_length() - 1
        for block in open_blocks:
            if not fixes[block] >> element & 1:
                continue
            for tag in range(1, size):  # the lesser of each class {tag, tag ^ block}
                if negs[tag] >> element & 1 and tag <= tag ^ block:
                    placed[block].append(tag)
                    if solve(covered | fixes[block] & negs[tag]):
                        return True
                    placed[block].pop()
        return False

    if not solve(0):
        return None
    group = BieberbachGroup.from_tags(rep, placed)
    assert is_torsion_free(group).ok
    return group


# -- BGF file format -----------------------------------------------------------

BGF_MAGIC = "BGF1"


def write_bgf(group: BieberbachGroup, stream) -> None:
    """Serialize in the line-oriented BGF text form."""
    if isinstance(stream, (str, bytes)):
        with open(stream, "w", encoding="ascii") as fh:
            write_bgf(group, fh)
            return
    stream.write(f"{BGF_MAGIC}\n")
    stream.write(f"k={group.k} n={group.n}\n")
    for i in range(group.k):
        signs = " ".join("-" if c >> i & 1 else "+" for c in group.coord_chars)
        nums = " ".join(str(v) for v in group.gen_translations[i])
        stream.write(f"B{i + 1} {signs}\n")
        stream.write(f"b{i + 1} {nums}\n")


def read_bgf(stream) -> BieberbachGroup:
    """Parse the BGF text form, rejecting anything outside the format."""
    if isinstance(stream, (str, bytes)):
        with open(stream, "r", encoding="ascii") as fh:
            return read_bgf(fh)
    lines = stream.read().splitlines()
    if not lines or lines[0] != BGF_MAGIC:
        raise ValueError("not a BGF file: missing BGF1 header")
    if len(lines) < 2:
        raise ValueError("truncated BGF file")
    head = lines[1].split()
    if len(head) != 2 or not head[0].startswith("k=") or not head[1].startswith("n="):
        raise ValueError(f"malformed BGF size line: {lines[1]!r}")
    try:
        k = int(head[0][2:])
        n = int(head[1][2:])
    except ValueError:
        raise ValueError(f"malformed BGF size line: {lines[1]!r}") from None
    if k < 1 or n < 1:
        raise ValueError("BGF ranks and dimensions must be positive")
    body = lines[2:]
    if len(body) < 2 * k:
        raise ValueError("truncated BGF file")
    for extra in body[2 * k:]:
        if extra and not extra.startswith("#"):
            raise ValueError(f"unexpected BGF content: {extra!r}")
    # every line's length and label before anything sized by the header's n
    rows = [(body[2 * i].split(), body[2 * i + 1].split()) for i in range(k)]
    for i, (sign_line, num_line) in enumerate(rows):
        if len(sign_line) != n + 1 or sign_line[0] != f"B{i + 1}":
            raise ValueError(f"malformed BGF generator line: {body[2 * i]!r}")
        if len(num_line) != n + 1 or num_line[0] != f"b{i + 1}":
            raise ValueError(f"malformed BGF translation line: {body[2 * i + 1]!r}")
    chars = [0] * n
    tags = [0] * n
    for i, (sign_line, num_line) in enumerate(rows):
        for j, tok in enumerate(sign_line[1:]):
            if tok == "-":
                chars[j] |= 1 << i
            elif tok != "+":
                raise ValueError(f"bad sign token {tok!r} in BGF generator line")
        for j, tok in enumerate(num_line[1:]):
            if tok == "1":
                tags[j] |= 1 << i
            elif tok != "0":
                raise ValueError(f"bad numerator token {tok!r} in BGF translation line")
    return BieberbachGroup(k, tuple(chars), tuple(tags))


# -- renderers ------------------------------------------------------------------

def sunada_table_text(table: dict[tuple[int, int], int], n: int) -> str:
    """Render c_{s,t} entries as 'c[s,t] = m', largest s first, without the
    identity row (s = n, t = 0), to match printed listings."""
    items = []
    for (s, t), m in sorted(table.items(), key=lambda kv: (-kv[0][0], kv[0][1])):
        if (s, t) != (n, 0):
            items.append(f"c[{s},{t}] = {m}")
    return "\n".join(items)

