"""Deterministic synthetic corpus generator.

Emits the three files of ``dataset.CORPUS_FILES`` for a configurable number
of ground-truth persons, each owning one twitter-like and one flickr-like
account. A single ``noise`` knob in [0, 1] controls every cross-platform
divergence: per-character edits on text fields, the chance of rewriting
the bio or moving city on the second platform, post-count jitter, and
stray posting times outside the person's usual hours/days. At noise 0 the
paired fields are identical.

The pools and coefficients below are versioned constants: changing them
changes the benchmark corpus, so bump GENERATOR_VERSION when touching them.
"""

from __future__ import annotations

import csv
import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .dataset import CORPUS_FILES, PAIRS_HEADER, Platform

GENERATOR_VERSION = 1

FIRST_NAMES = [
    "alice", "amelia", "arjun", "bella", "boris", "carla", "chen", "clara",
    "daniel", "diego", "elena", "emma", "felix", "fiona", "george", "hana",
    "henry", "ines", "ivan", "jack", "jade", "kamal", "kara", "liam",
    "lina", "louis", "maria", "marta", "miguel", "nadia", "nina", "oliver",
    "omar", "paula", "pedro", "priya", "quinn", "rafael", "rosa", "samir",
    "sofia", "tarik", "tessa", "viktor", "wendy", "xavier", "yuki", "zara",
]

LAST_NAMES = [
    "adams", "baker", "bauer", "becker", "bishop", "blanc", "carter",
    "castro", "chandra", "costa", "diaz", "dubois", "fischer", "flores",
    "garcia", "haas", "harper", "hayes", "ito", "jensen", "keller", "kim",
    "kowalski", "lang", "larsen", "lehmann", "lopez", "marino", "mendez",
    "moreau", "nagy", "novak", "okafor", "ortega", "patel", "peters",
    "popov", "rahman", "reyes", "rossi", "santos", "schmid", "silva",
    "tanaka", "vargas", "weber", "wong", "yilmaz",
]

USERNAME_PATTERNS = [
    "{first}{last}",
    "{first}_{last}",
    "{first}.{last}",
    "{first}{last}{num}",
    "{initial}{last}",
    "{last}{first}",
    "{first}{num}",
]

BIO_PHRASES = [
    "coffee enthusiast and weekend photographer",
    "travelling the world one city at a time",
    "software developer who loves open source",
    "proud parent, amateur cook, full time dreamer",
    "music is life, vinyl collector since 2005",
    "cycling, hiking and everything outdoors",
    "writing about food, culture and travel",
    "cat person, tea drinker, night owl",
    "marathon runner chasing personal bests",
    "painting landscapes and portraits on commission",
    "film student with a taste for documentaries",
    "gamer, streamer and occasional speedrunner",
    "teaching maths by day, baking bread by night",
    "urban gardener growing tomatoes on a balcony",
    "history buff and museum regular",
    "learning languages, currently on number four",
    "freelance designer available for projects",
    "sharing daily sketches and doodles",
    "science communicator and stargazer",
    "vintage camera collector and darkroom tinkerer",
    "volunteer firefighter and dog trainer",
    "board game nights are the best nights",
    "slow fashion advocate and thrift shopper",
    "home barista perfecting the flat white",
    "bird watching at dawn, jazz at dusk",
    "climbing rocks and occasionally mountains",
    "comics, coffee and long train rides",
    "knitting my way through every winter",
    "street food hunter with a cast iron stomach",
    "amateur astronomer with a backyard telescope",
]

CITIES = [
    "amsterdam", "austin", "barcelona", "berlin", "bogota", "boston",
    "cape town", "chicago", "dublin", "helsinki", "istanbul", "jakarta",
    "kyoto", "lagos", "lisbon", "london", "melbourne", "mexico city",
    "montreal", "mumbai", "oslo", "prague", "seoul", "singapore",
    "toronto", "vienna", "warsaw", "wellington",
]

_EDIT_ALPHABET = "abcdefghijklmnopqrstuvwxyz"

# Cross-platform divergence coefficients, all multiplied by the noise knob.
BIO_REWRITE_COEF = 3.0  # chance the other platform gets a different phrase
CITY_MOVE_COEF = 2.0  # chance the other platform lists a different city
POST_COUNT_JITTER_COEF = 3.0  # relative post-count wobble per platform
TIME_JITTER_COEF = 0.75  # chance a post falls outside the usual hours/days

_BASE_MONDAY = datetime(2022, 1, 3, tzinfo=timezone.utc)

MIN_USERS = 10


def _perturb(text: str, noise: float, rng: random.Random) -> str:
    """Apply an edit (substitute/delete/insert) at each position with
    probability ``noise``."""
    if noise <= 0.0:
        return text
    out = []
    for ch in text:
        if rng.random() >= noise:
            out.append(ch)
            continue
        op = rng.random()
        if op < 0.6:
            out.append(rng.choice(_EDIT_ALPHABET))
        elif op < 0.8:
            pass  # deletion
        else:
            out.append(ch)
            out.append(rng.choice(_EDIT_ALPHABET))
    return "".join(out)


def _make_username(first: str, last: str, rng: random.Random, used: set[str]) -> str:
    pattern = rng.choice(USERNAME_PATTERNS)
    name = pattern.format(
        first=first, last=last, initial=first[0], num=rng.randrange(10, 100)
    )
    while name in used:
        name = f"{name}{rng.randrange(10)}"
    used.add(name)
    return name


def _sample_name_combos(n_users: int, rng: random.Random) -> list[tuple[str, str]]:
    combos = [(f, l) for f in FIRST_NAMES for l in LAST_NAMES]
    if n_users <= len(combos):
        return rng.sample(combos, n_users)
    # beyond pool capacity names repeat; usernames stay unique via suffixes
    return [rng.choice(combos) for _ in range(n_users)]


def generate_corpus(n_users: int, noise: float, seed: int, out_dir: str) -> dict:
    """Write the three corpus files; returns a generation summary."""
    if n_users < MIN_USERS:
        raise ValueError(f"n_users must be >= {MIN_USERS}, got {n_users}")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    bio_rewrite_p = min(1.0, BIO_REWRITE_COEF * noise)
    city_move_p = min(1.0, CITY_MOVE_COEF * noise)
    time_jitter_p = min(0.5, TIME_JITTER_COEF * noise)

    profile_lines: list[str] = []
    post_lines: list[str] = []
    pair_rows: list[tuple[str, str]] = []
    used_usernames: set[str] = set()
    name_combos = _sample_name_combos(n_users, rng)
    twitter, flickr = Platform  # in declaration order

    for person in range(n_users):
        first, last = name_combos[person]
        username = _make_username(first, last, rng, used_usernames)
        real_name = f"{first.capitalize()} {last.capitalize()}"
        bio = rng.choice(BIO_PHRASES)
        city = rng.choice(CITIES)
        activity = rng.randint(20, 400)
        active_hours = rng.sample(range(24), rng.randint(3, 7))
        active_days = rng.sample(range(7), rng.randint(2, 5))

        t_id, f_id = f"tw{person:05d}", f"fl{person:05d}"
        pair_rows.append((t_id, f_id))

        for platform, user_id in ((twitter, t_id), (flickr, f_id)):
            platform_bio = bio
            if platform is flickr and rng.random() < bio_rewrite_p:
                platform_bio = rng.choice(BIO_PHRASES)
            platform_city = city
            if platform is flickr and rng.random() < city_move_p:
                platform_city = rng.choice(CITIES)
            jitter = rng.uniform(-POST_COUNT_JITTER_COEF * noise,
                                 POST_COUNT_JITTER_COEF * noise)
            post_count = max(1, round(activity * (1.0 + jitter)))
            profile_lines.append(
                json.dumps(
                    {
                        "platform": platform.value,
                        "user_id": user_id,
                        "user_name": _perturb(username, noise, rng),
                        "real_name": _perturb(real_name, noise, rng),
                        "description": _perturb(platform_bio, noise, rng),
                        "location": _perturb(platform_city, noise, rng),
                        "post_count": post_count,
                    },
                    sort_keys=True,
                )
            )
            for _ in range(rng.randint(25, 60)):
                hour = (
                    rng.randrange(24)
                    if rng.random() < time_jitter_p
                    else rng.choice(active_hours)
                )
                day = (
                    rng.randrange(7)
                    if rng.random() < time_jitter_p
                    else rng.choice(active_days)
                )
                ts = _BASE_MONDAY + timedelta(
                    weeks=rng.randrange(52),
                    days=day,
                    hours=hour,
                    minutes=rng.randrange(60),
                    seconds=rng.randrange(60),
                )
                post_lines.append(
                    json.dumps(
                        {
                            "platform": platform.value,
                            "user_id": user_id,
                            "timestamp": ts.isoformat(),
                        },
                        sort_keys=True,
                    )
                )

    profiles_path, posts_path, pairs_path = (out / name for name in CORPUS_FILES.values())
    profiles_path.write_text("\n".join(profile_lines) + "\n", encoding="utf-8")
    posts_path.write_text("\n".join(post_lines) + "\n", encoding="utf-8")
    with open(pairs_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PAIRS_HEADER)
        writer.writerows(pair_rows)
    return {
        "generator_version": GENERATOR_VERSION,
        "n_users": n_users,
        "noise": noise,
        "seed": seed,
        "profiles": len(profile_lines),
        "posts": len(post_lines),
        "pairs": len(pair_rows),
        "profiles_path": str(profiles_path),
        "posts_path": str(posts_path),
        "pairs_path": str(pairs_path),
    }
