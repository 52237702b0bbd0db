"""Every soundness gate catches its mutants.

Each row patches one attribute with a mutant (in every module that reads it
by name) and runs one gate again, whose failure shows that the gate reaches
what the mutant breaks. A ``hypothesis`` gate keeps its examples and drops
its shrinking and its example database, so it fails at its first failing
example. A failure is an ``AssertionError``, or pytest's ``Failed`` where the
gate expects a refusal that no longer comes.
"""

import inspect
import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import Phase, settings

import test_cli
import test_composition
import test_hypothesis_dp
import test_integration
import test_oracle
import test_pinned
import test_refinement
from hypodp import cli, composition, constraints, core, hypothesis_dp, oracle, subsampling
from hypodp.core import BitVector, Hypothesis, PrivacyParams


def without_the_largest_gap(real):
    """``required_delta`` missing its largest term: the worst view goes unseen."""
    def required_delta(p0, p1, eps):
        gaps = np.sort(p0.probs - math.exp(min(eps, 700.0)) * p1.probs)
        return math.fsum(gaps[gaps > 0.0][:-1])
    return required_delta


def as_point_masses(real):
    """``_check_resolution`` counting each side's roundings as a point mass's k - 1."""
    def check_resolution(mechs, p0, p1, eps):
        point = Hypothesis.point_mass(BitVector.zeros(p0.k))
        return real(mechs, point, point, eps)
    return check_resolution


def unchecked(real):
    """``_plan`` without its step check: only the view space is bounded."""
    def plan(mechs, h):
        oracle._check_view_space(mechs, h.k)
        return partial(oracle._contract, h.weights[:, None], oracle._steps(h),
                       [m._tables for m in mechs])
    return plan


def on_the_other_side_last(real):
    """``_one_row`` putting its row on the other side at its last position."""
    def one_row(word, k):
        *steps, (split, rows, low, high) = real(word, k)
        return [*steps, (1 - split, rows, low, high)]
    return one_row


def epsilon_times(factor):
    """A mutant claiming ``factor`` times its target's epsilon."""
    def mutant(real):
        def shaved(*args):
            g = real(*args)
            return PrivacyParams(factor * g.epsilon, g.delta)
        return shaved
    return mutant


def one_size_smaller(real):
    """``_max_over_subsets`` composing the top ``size - 1`` guarantees, not the top ``size``."""
    return lambda seq, size, theorem: real(seq, size - 1, theorem)


def one_position_fewer(real):
    """``_piece_keys`` composing each XOR word without its lowest differing position."""
    def piece_keys(xor_words, *args):
        return real(xor_words & (xor_words - np.uint64(1)), *args)
    return piece_keys


def one_bit_fewer(real):
    """``_class_refinement`` composing each representative XOR word without its lowest bit."""
    def class_refinement(p0, p1, masks):
        refined = real(p0, p1, masks)
        if refined is None:
            return None
        pairs, xor_words = refined
        return pairs, xor_words & (xor_words - np.uint64(1))
    return class_refinement


def tiny_residuals_dropped(real):
    """``refine_tuples`` leaving out every piece of 1e-12 or less, as it did before it
    kept every residual."""
    def refine(p0, p1):
        refined = real(p0, p1)
        pairs = refined.pairs[refined.pairs["weight"] > 1e-12]
        return hypothesis_dp.MatchedRefinement(refined.k, pairs)
    return refine


def not_rescaled(real):
    """``Hypothesis._set`` keeping the weights as given, sorted by word but not rescaled."""
    def set_arrays(self, k, words, weights):
        real(self, k, words, weights)
        self._weights = weights[np.argsort(words)]
        return self
    return set_arrays


def weighed_after_the_entry(real):
    """``_pieces`` weighing each piece by |x| after its entry, not before it."""
    def pieces(pairs, n, i0, i1, signed, *words):
        state = real(pairs, n, i0, i1, signed, *words)
        signed = np.asarray(signed)[:state[1] - i0 + state[2] - i1 + 1]  # the entries kept
        xs = signed.cumsum()
        after = np.minimum(np.abs(signed[1:]), np.abs(xs[1:]))
        pairs["weight"][n:state[0]] = after[xs[:-1] != 0.0]
        return state
    return pieces


def one_entry_past_the_cut(real):
    """``_pieces`` keeping a window's entries through its first wrong prediction, not
    up to it: the wrong entry is passed on alone, and a first entry is taken as right."""
    def pieces(pairs, n, i0, i1, signed, *words):
        n, j0, j1, x = real(pairs, n, i0, i1, signed, *words)
        f = j0 - i0 + j1 - i1
        if f + 1 < len(signed):
            return real(pairs, n, j0, j1, [x, signed[f + 1]], *words)
        return n, j0, j1, x
    return pieces


def leaky_rr_times(factor):
    """``leaky_rr`` built at ``factor`` times the epsilon it is asked for."""
    def mutant(real):
        return lambda eps, delta: real(factor * eps, delta)
    return mutant


def delta_uncapped(real):
    """``_compose_words`` under ``Simple`` without its delta cap at 1."""
    def compose_words(guarantees, words, theorem):
        out = real(guarantees, words, theorem)
        if isinstance(theorem, composition.Simple):
            out[:, 1] = core._exact_word_sums(words, [g.delta for g in guarantees])
        return out
    return compose_words


def row_one_position_short(real):
    """``_compose_words``' per-row path composing each row without its last selected
    position, the lowest set bit of its word."""
    def compose_words(guarantees, words, theorem):
        if not isinstance(theorem, composition.Simple):
            words = words & (words - np.uint64(1))
        return real(guarantees, words, theorem)
    return compose_words


def block_deltas_times(factor):
    """``uniform_prior_bound``'s aggregation handed ``factor`` times each block's delta."""
    def mutant(real):
        return lambda pairs, key, table: real(pairs, key, table * [1.0, factor])
    return mutant


def top_bit_missing(real):
    """``_byte_tables`` blind to the top bit of each byte: its positions add nothing."""
    def byte_tables(limbs):
        tables = real(limbs)
        tables[..., 128:] = tables[..., :128]
        return tables
    return byte_tables


def in_row_order(real):
    """``_Groups.delta_j`` walking each group in row order, as the other side's runs lie,
    not in its own order by ascending delta."""
    def delta_j(self, eps):
        order, self.order = self.order, None
        try:
            return real(self, eps)
        finally:
            self.order = order
    return delta_j


def one_group_unsorted(real):
    """``_Groups`` keeping a side of one group in row order: ``delta_j`` walks its pieces
    unsorted by delta."""
    def init(self, words, weight, eps, key, table, ranks, buffer):
        if len(words) and words[0] == words[-1]:  # one group: every stable sort keeps row order
            ranks = lambda: np.zeros(len(table), dtype=np.intp)  # noqa: E731
        real(self, words, weight, eps, key, table, ranks, buffer)
    return init


def unstable_dedupe(real):
    """``_distinct`` sorting keys unstably: a key may keep any of its words, not the smallest."""
    return lambda values, kind=None: real(values)


def small_steps_symbols_swapped(real):
    """``_contract`` reading symbols 0 and 1 of each table swapped in its broadcast steps."""
    def contract(x, steps, tables):
        width, read = x.shape[1], []
        for (split, rows, low, high), (t0, t1) in zip(steps, tables):
            if rows * width * len(t0) <= oracle._BROADCAST_ENTRIES and len(t0) > 1:
                swap = [1, 0, *range(2, len(t0))]
                t0, t1 = t0[swap], t1[swap]
            read.append((t0, t1))
            width *= len(t0)
        return real(x, steps, read)
    return contract


def one_pair_fewer(real):
    """``_max_over_pairs`` without its first pair: ``exclusive_groups_bound`` leaves out
    the first group's pattern against the second's."""
    def max_over_pairs(seq, differences, theorem):
        return real(seq, differences[1:], theorem)
    return max_over_pairs


def narrower(real):
    """``_WIDTH`` one less: a plain string breaks at a space at column 80, not only past it."""
    return real - 1


def at_the_parent_indent(real):
    """``_fold`` starting a string's next rows at its mapping's indent, not two columns in."""
    return lambda text, column, indent: real(text, column, indent - 2)


def every_text_a_string(real):
    """``_RESOLVER`` reading every text as a string, so ``0101`` is written plain."""
    return SimpleNamespace(resolve=lambda kind, value, implicit: cli._STR)


def one_level_deeper(real):
    """``_MAX_DEPTH`` one larger: 65 open collections are read."""
    return real + 1


def anchors_unchecked(real):
    """``_build`` without its anchor check: each node event's anchor is dropped unread."""
    def build(loader):
        get_event = loader.get_event

        def unanchored():
            event = get_event()
            if isinstance(event, (yaml.ScalarEvent, yaml.CollectionStartEvent)):
                event.anchor = None
            return event
        loader.get_event = unanchored
        return real(loader)
    return build


sharp, verify = test_integration.TestClaimsAreSharp(), test_oracle.TestVerifyHdp()
split, matched = test_oracle.TestContractionSplit(), test_integration.TestEveryUnitOfMassIsMatched()
GAP, RESOLUTION = [(oracle, "required_delta")], [(oracle, "_check_resolution")]
PLAN = [(oracle, "_plan")]
AGGREGATE = [(hypothesis_dp, "_aggregate"), (subsampling, "_aggregate")]
PIECE_KEYS = [(hypothesis_dp, "_piece_keys"), (constraints, "_piece_keys")]
PIECES = [(hypothesis_dp, "_pieces"), (test_refinement, "_pieces")]
walk = test_refinement.TestArrayWalk()
WRITER = test_cli.test_report_shaped_trees_take_the_writer
CLOSED_FORM = [(hypothesis_dp, "uniform_nonzero_closed_form"),
               (subsampling, "uniform_nonzero_closed_form"),
               (test_integration, "uniform_nonzero_closed_form")]
CLASSIC = [(composition, "best_classic_bound"), (test_integration, "best_classic_bound")]
COMPOSE_WORDS = [(composition, "_compose_words"), (hypothesis_dp, "_compose_words"),
                 (test_composition, "_compose_words"), (test_hypothesis_dp, "_compose_words")]
selections = test_composition.TestComposeSelections()
# (id, the attribute in each module that reads it, its mutant, the gate). A gate that
# takes ``monkeypatch`` gets a MonkeyPatch of its own, undone before the mutant; one that
# takes ``tmp_path`` or ``capsys`` gets the row's.
ROWS = [
    ("gap-classic", GAP, without_the_largest_gap, sharp.test_classic_bound_cannot_be_shaved),
    ("gap-uniform-prior", GAP, without_the_largest_gap,
     sharp.test_uniform_prior_closed_form_cannot_be_shaved),
    ("gap-unsound-claim", GAP, without_the_largest_gap, verify.test_unsound_claim_detected),
    ("resolution-as-point-masses", RESOLUTION, as_point_masses,
     verify.test_mixture_roundings_are_counted_per_step),
    ("plan-unchecked-boundary", PLAN, unchecked, test_oracle.TestWorkBudget().test_boundary),
    *[(f"plan-unchecked-one-symbol-{i}", PLAN, unchecked,
       partial(split.test_one_symbol_plans_past_the_limit_are_refused, mechs=mechs))
      for i, mechs in enumerate(test_oracle.TestContractionSplit.PLANS)],
    ("one-atom-plan-wrong-side", [(oracle, "_one_row")], on_the_other_side_last,
     test_oracle.test_one_atom_views_equal_the_scalar_reference),
    ("leaky-rr-0.97-eps", [(oracle, "leaky_rr"), (test_oracle, "leaky_rr")], leaky_rr_times(0.97),
     test_oracle.test_leaky_rr_dominates_every_mechanism_with_its_guarantee),
    ("aggregate-exchangeable", AGGREGATE, epsilon_times(0.9),
     test_integration.test_hdp_guarantee_holds_on_exchangeable_pairs),
    ("aggregate-near-equal", AGGREGATE, epsilon_times(0.9),
     test_integration.test_hdp_guarantee_holds_on_near_equal_pairs),
    ("aggregate-uniform-prior", AGGREGATE, epsilon_times(0.9),
     test_integration.test_uniform_prior_bound_holds_on_zero_against_uniform_nonzero),
    ("piece-keys-exchangeable", PIECE_KEYS, one_position_fewer,
     test_integration.test_hdp_guarantee_holds_on_exchangeable_pairs),
    ("piece-keys-near-equal", PIECE_KEYS, one_position_fewer,
     test_integration.test_hdp_guarantee_holds_on_near_equal_pairs),
    ("piece-keys-constrained", PIECE_KEYS, one_position_fewer,
     test_integration.test_constrained_bound_holds_on_allowed_pairs),
    ("exclusive-groups-one-pair-fewer", [(constraints, "_max_over_pairs")], one_pair_fewer,
     test_integration.test_exclusive_groups_bound_holds_on_allowed_pairs),
    ("writer-breaks-at-column-80", [(cli, "_WIDTH")], narrower, WRITER),
    ("writer-rows-at-the-parent-indent", [(cli, "_fold")], at_the_parent_indent, WRITER),
    ("writer-0101-plain", [(cli, "_RESOLVER")], every_text_a_string, WRITER),
    ("max-over-subsets-one-smaller", [(constraints, "_max_over_subsets")], one_size_smaller,
     test_integration.test_constrained_bound_holds_on_allowed_pairs),
    ("closed-form-0.95-epsilon", CLOSED_FORM, epsilon_times(0.95),
     sharp.test_uniform_prior_closed_form_cannot_be_shaved),
    ("best-classic-0.95-epsilon", CLASSIC, epsilon_times(0.95),
     test_integration.test_best_classic_bound_holds_on_zero_against_all_ones),
    ("class-refinement-one-bit-fewer", [(hypothesis_dp, "_class_refinement")], one_bit_fewer,
     test_integration.test_hdp_guarantee_holds_on_exchangeable_pairs),
    ("refine-drops-tiny-residuals", [(hypothesis_dp, "refine_tuples")], tiny_residuals_dropped,
     matched.test_near_uniform_pair_with_randomized_response),
    ("hypothesis-not-rescaled", [(core.Hypothesis, "_set")], not_rescaled,
     matched.test_totals_apart_within_the_normalization_tolerance),
    ("pieces-weighed-after-the-entry", PIECES, weighed_after_the_entry,
     walk.test_seeded_mixtures),
    ("window-one-entry-past-the-cut", PIECES, one_entry_past_the_cut,
     walk.test_few_atoms_left_after_a_wrong_prediction),
    ("uniform-prior-0.9-block-deltas", [(subsampling, "_aggregate")], block_deltas_times(0.9),
     test_integration.test_uniform_prior_bound_holds_on_zero_against_uniform_nonzero),
    ("compose-words-delta-uncapped", COMPOSE_WORDS, delta_uncapped,
     selections.test_delta_sum_above_one_is_capped),
    ("compose-words-row-one-position-short", COMPOSE_WORDS, row_one_position_short,
     selections.test_simple_and_pluggable),
    ("byte-table-top-bit-missing", [(core, "_byte_tables")], top_bit_missing,
     test_composition.TestExactRowSums().test_magnitudes_from_1e_minus_300_to_1e300),
    # Row order only raises delta_J (a piece counted out of turn adds a_i (d_i - t) >= 0
    # or leaves out a_i (t - d_i) >= 0), so no soundness gate can see it; the lexsort
    # reference does.
    ("delta-j-in-row-order", [(hypothesis_dp._Groups, "delta_j")], in_row_order,
     test_hypothesis_dp.TestRunGroups().test_random_tables_out_of_order_within_runs),
    ("one-group-side-unsorted", [(hypothesis_dp._Groups, "__init__")], one_group_unsorted,
     test_pinned.test_small_path_bits),
    ("key-dedupe-unstable", [(composition, "_distinct")], unstable_dedupe,
     test_composition.test_each_key_composes_its_smallest_word),
    ("small-contraction-symbols-swapped", [(oracle, "_contract")], small_steps_symbols_swapped,
     test_oracle.test_one_atom_views_equal_the_scalar_reference),
    ("reader-one-level-deeper", [(cli, "_MAX_DEPTH")], one_level_deeper,
     partial(test_cli.test_nesting_to_the_cap_reads_as_yaml_load_does, loader=cli._LOADER)),
    ("reader-anchors-unchecked", [(cli, "_build")], anchors_unchecked,
     partial(test_cli.test_yaml_no_scenario_needs_exits_1_naming_it,
             **dict(zip(["text", "feature", "column"], test_cli.REFUSALS["anchor"])))),
]


@pytest.mark.parametrize("targets, mutant, gate", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_the_gate_fails_with_its_mutant(monkeypatch, tmp_path, capsys, targets, mutant, gate):
    if hasattr(gate, "hypothesis"):  # a @given gate
        monkeypatch.setattr(gate, "_hypothesis_internal_use_settings", settings(
            gate._hypothesis_internal_use_settings,
            phases=[Phase.explicit, Phase.generate], database=None))
    for module, name in targets:
        monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    takes = inspect.signature(gate).parameters
    with pytest.MonkeyPatch.context() as mp, \
            pytest.raises((AssertionError, pytest.fail.Exception)):
        fixtures = {"monkeypatch": mp, "tmp_path": tmp_path, "capsys": capsys}
        gate(**{name: fixtures[name] for name in takes if name in fixtures})
