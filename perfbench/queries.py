"""Seeded query texts for the workloads.

The shapes are the tree-pattern classes the experiments already sweep
(``repro.workload.queries``): linear child paths (E2), twigs (E3), the
XMark set with descendant, attribute and wildcard steps (E4), sibling
steps, value predicates, relative residual predicates and one FLWOR
with element construction.  Only literals vary, and they come from a
``random.Random`` seeded by the benchmark seed.
"""

from __future__ import annotations

import random

REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")
LOCATIONS = ("United States", "Germany", "Japan", "Brazil", "Kenya")
PAYMENTS = ("Cash", "Creditcard", "Money order")
FIRST = ("Ann Bob Carol Dave Eve Frank Grace Henry Iris Jack Kate Luis "
         "Mona Nils Olga Paul").split()
LAST = ("Adams Baker Chen Davis Evans Fisher Green Huang Ivanov Jones "
        "Klein Lopez").split()
WORDS = ("quality vintage rare modern classic compact deluxe standard "
         "premium basic refurbished sealed boxed signed limited "
         "original").split()


def _money(fraction: float, low: float, high: float) -> str:
    return f"{low + fraction * (high - low):.2f}"


KINDS = 14


def _read_large_text(rng: random.Random, scale: int, kind: int,
                     fraction: float) -> str:
    """One text of shape ``kind``; ``fraction`` in [0, 1) places its
    numeric literal within the value range."""
    region = rng.choice(REGIONS)
    if kind == 0:   # E2 linear paths
        leaf = rng.choice(("name", "description/text", "mailbox/mail/date",
                           "location", "quantity"))
        return f"/site/regions/{region}/item/{leaf}"
    if kind == 1:   # E3 twig with two value branches
        return (f"//item[location = '{rng.choice(LOCATIONS)}']"
                f"[payment = '{rng.choice(PAYMENTS)}']"
                f"[quantity = '{rng.randint(1, 5)}']/name")
    if kind == 2:   # E3 deep twig
        return (f"//open_auction[initial > {_money(fraction, 1, 200)}][seller]"
                f"/bidder/increase")
    if kind == 3:   # E3 mixed / and //
        return (f"/site//item[mailbox/mail/from = '{rng.choice(FIRST)}']"
                f"[quantity = '{rng.randint(1, 5)}']/name")
    if kind == 4:   # E3 attribute twig
        return (f"//person[profile/@income > "
                f"{20000 + int(fraction * 100000)}]/name")
    if kind == 5:   # E4 descendant below descendant
        return (f"//item[mailbox//date = '0{rng.randint(1, 9)}/"
                f"{rng.randint(10, 28)}/2003']/name")
    if kind == 6:   # E4 attribute equality
        return f"//person[@id = 'person{rng.randrange(scale)}']/name"
    if kind == 7:   # E4 wildcard step
        return (f"/site/*/{region}/item[quantity = "
                f"'{rng.randint(1, 5)}']/location")
    if kind == 8:   # sibling step
        return (f"//open_auction[initial > {_money(fraction, 1, 200)}]"
                f"/initial/following-sibling::current")
    if kind == 9:   # value predicate on a text leaf
        words = f"{rng.choice(WORDS)} {rng.choice(WORDS)}"
        return (f"//item[name = '{words} {rng.randrange(scale)}']"
                f"/payment")
    if kind == 10:  # value predicate, range
        return (f"//closed_auction[price < {_money(fraction, 5, 400)}]"
                f"/itemref")
    if kind == 11:  # relative residual predicate
        return (f"//person[name != '{rng.choice(FIRST)} "
                f"{rng.choice(LAST)}']/emailaddress")
    if kind == 12:  # relative residual predicate on a twig
        return (f"//item[payment = '{rng.choice(PAYMENTS)}']"
                f"[location != '{rng.choice(LOCATIONS)}']"
                f"[quantity = '{rng.randint(1, 5)}']/name")
    # FLWOR with element construction
    return (f"for $p in //person[profile/@income > "
            f"{20000 + int(fraction * 100000)}] "
            f"return <p>{{$p/name/text()}}</p>")


def read_large_pool(seed: int, size: int, scale: int,
                    exclude=()) -> list[str]:
    """``size`` distinct texts, none in ``exclude``, in a seeded order.

    Every shape contributes the same number of texts whatever the seed,
    and its numeric literals are spread evenly over their range (one
    draw per stratum), so a seed changes literals and order but neither
    the mix nor the spread of result sizes."""
    rng = random.Random(f"read-large:{seed}")
    pool: list[str] = []
    seen: set[str] = set(exclude)
    per_kind = -(-size // KINDS)
    while len(pool) < size:
        kind, slot = len(pool) % KINDS, len(pool) // KINDS
        fraction = (slot + rng.random()) / per_kind
        text = _read_large_text(rng, scale, kind, fraction)
        if text not in seen:
            seen.add(text)
            pool.append(text)
    rng.shuffle(pool)
    return pool


# Warm-up texts: touch every module the pool uses without issuing any
# pool text, so the first timed query pays no import or first-build
# cost that later ones do not.
WARMUP = (
    "/site/regions/europe/item/name",
    "//item[name]/payment",
    "//person[profile/@income]/name",
    "//name/following-sibling::payment",
    "for $i in /site/regions/asia/item return <i>{$i/name/text()}</i>",
)

# served-mixed: the hot set every client asks again and again (ten
# texts, so each block of 40 hot requests holds each one four times).
HOT = (
    "/site/regions/europe/item/name",
    "count(//person)",
    "//item[payment = 'Cash']/name",
    "//person[profile/@income]/name",
    "//open_auction[initial > 100]/current",
    "/site/categories/category/name",
    "//item[location][quantity]/name",
    "//name/following-sibling::payment",
    "/site/people/person[@id = 'person3']/name",
    "for $i in /site/regions/asia/item return <i>{$i/name/text()}</i>",
)


def unique_number(rng: random.Random, serial: int, low: float,
                  high: float) -> str:
    """A decimal literal in [low, high) that no other serial produces."""
    return f"{rng.uniform(low, high):.2f}{serial:06d}"


def ad_hoc_text(rng: random.Random, serial: int) -> str:
    """A served ad-hoc query whose literal never repeats."""
    kind = serial % 5
    if kind == 0:
        return (f"//open_auction[initial > "
                f"{unique_number(rng, serial, 1, 200)}]/current")
    if kind == 1:
        return (f"//person[profile/@income > "
                f"{unique_number(rng, serial, 20000, 120000)}]/name")
    if kind == 2:
        return (f"//item[quantity = '{rng.randint(1, 5)}']"
                f"[name != '{rng.choice(WORDS)} {serial}']/location")
    if kind == 3:
        return (f"for $a in //open_auction[current > "
                f"{unique_number(rng, serial, 1, 300)}] "
                f"return <bid>{{$a/current/text()}}</bid>")
    return (f"//closed_auction[price < "
            f"{unique_number(rng, serial, 5, 400)}]/itemref/@item")


def residual_text(rng: random.Random, serial: int) -> str:
    """A context-free residual predicate (ROADMAP 2c's cliff)."""
    return (f"//person[//bidder/increase = "
            f"'{unique_number(rng, serial, 1, 30)}']/name")


def stable_read_text(rng: random.Random, serial: int,
                     descendant: bool) -> str:
    """write-mix: a read over auctions only, whose answer no person
    insert or delete can change.  The descendant form is served from the
    columnar view, which the first such read after a write rebuilds."""
    if descendant:
        return (f"//open_auction[initial > "
                f"{unique_number(rng, serial, 1, 200)}]/current")
    return (f"/site/closed_auctions/closed_auction[price > "
            f"{unique_number(rng, serial, 5, 400)}]/seller/@person")
