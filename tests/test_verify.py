"""The theorem-check suite: pass behaviour, determinism, fault injection."""

from fractions import Fraction

import pytest

from diffeorules import verify
from diffeorules.algebra import RF_ONE, RF_ZERO, Polynomial, RationalFunction, Scalar, rf, generic_symbol
from diffeorules.rules import NonlocalSpec
from diffeorules.verify import (
    CheckSpec,
    Report,
    check_adiabatic,
    check_bn,
    check_bprime,
    check_generalized,
    check_interaction_cancellation,
    check_kinematics,
    check_names,
    check_nonlocal,
    check_smatrix_free,
    default_suite,
    run_suite,
    suite_passed,
)


class TestIndividualChecks:
    def test_bn_passes(self):
        report = check_bn(max_n=5)
        assert report.status == "pass"
        assert report.witness is None

    def test_smatrix_free_passes(self):
        assert check_smatrix_free(max_n=5).status == "pass"

    def test_interaction_cancellation_passes(self):
        assert check_interaction_cancellation(s=3, max_n=6).status == "pass"
        assert check_interaction_cancellation(s=4, max_n=6).status == "pass"

    def test_bprime_passes(self):
        assert check_bprime(s=3, max_n=4).status == "pass"

    def test_adiabatic_passes(self):
        assert check_adiabatic(s=3, max_n=5, order=10).status == "pass"
        assert check_adiabatic(s=4, max_n=5, order=10).status == "pass"

    def test_generalized_passes(self):
        assert check_generalized(max_n=5).status == "pass"

    def test_nonlocal_passes(self):
        assert check_nonlocal(max_n=4).status == "pass"

    def test_nonlocal_with_rational_alpha(self):
        spec = NonlocalSpec(alpha={1: rf(Fraction(1, 3)), 2: rf(Fraction(2, 5))})
        assert check_nonlocal(max_n=4, spec=spec).status == "pass"

    def test_kinematics_passes(self):
        assert check_kinematics(n_values=(3, 4), trials=10, seed=1).status == "pass"

    def test_kinematics_builds_each_vertex_form_once_per_valence(self, monkeypatch):
        calls = []
        for name in ("free_vertex", "generalized_vertex"):
            rule = getattr(verify.rules, name)

            def counted(*args, _rule=rule, _name=name, **kwargs):
                calls.append(_name)
                return _rule(*args, **kwargs)

            monkeypatch.setattr(verify.rules, name, counted)
        assert check_kinematics(n_values=(3, 4, 5), trials=7).status == "pass"
        assert sorted(calls) == ["free_vertex"] * 3 + ["generalized_vertex"] * 3

    @pytest.mark.parametrize(
        "check, walks",
        [(check_bn, 1), (check_adiabatic, 2), (check_bprime, 1), (check_generalized, 1)],
        ids=["bn", "adiabatic", "bprime", "generalized"],
    )
    def test_each_rooted_kind_is_walked_once(self, monkeypatch, check, walks):
        # Every sum on fewer legs is read off the walk on max_n legs.
        rooted = []

        class Counted(verify.trees.TreeSumEngine):
            def __init__(self, n, **kwargs):
                super().__init__(n, **kwargs)
                if kwargs.get("rooted"):
                    rooted.append(n)

        monkeypatch.setattr(verify.trees, "TreeSumEngine", Counted)
        assert check(max_n=5).status == "pass"
        assert len(rooted) == walks

    @pytest.mark.parametrize("max_n", (-1, 0, 1, 2, 3, 4, 5))
    @pytest.mark.parametrize(
        "check, walks",
        [
            (lambda max_n: check_interaction_cancellation(s=3, max_n=max_n), lambda n: int(n >= 3)),
            (lambda max_n: check_interaction_cancellation(s=4, max_n=max_n), lambda n: int(n >= 4)),
            # One engine per offshell set, none or leg j <= max_n, read at
            # every n from max(3, j) up, the offshell virtual root j included.
            (check_smatrix_free, lambda n: n + 1 if n >= 3 else 0),
            (check_generalized, lambda n: n + 1 if n >= 3 else 0),
        ],
        ids=["interaction_cancellation s=3", "interaction_cancellation s=4", "smatrix_free", "generalized"],
    )
    def test_each_amputated_family_is_walked_once(self, monkeypatch, check, walks, max_n):
        # Every sum on fewer legs is read off the walk on max_n legs.
        amputated = []

        class Counted(verify.trees.TreeSumEngine):
            def __init__(self, n, **kwargs):
                super().__init__(n, **kwargs)
                if not kwargs.get("rooted"):
                    amputated.append(n)

        monkeypatch.setattr(verify.trees, "TreeSumEngine", Counted)
        assert check(max_n=max_n).status == "pass"
        assert len(amputated) == walks(max_n)

    @pytest.mark.parametrize("max_n", (-1, 0, 1, 2, 6, 7))
    @pytest.mark.parametrize(
        "check, params",
        [
            (check_bn, {}),
            (check_adiabatic, {"s": 3, "order": 10}),
            (check_bprime, {"s": 3}),
            (check_generalized, {}),
            (check_adiabatic, {"s": 4, "order": 10}),
            (check_bprime, {"s": 4}),
            (check_nonlocal, {}),
        ],
        ids=["bn", "adiabatic", "bprime", "generalized", "adiabatic s=4", "bprime s=4", "nonlocal"],
    )
    def test_rooted_checks_pass_at_the_smallest_sizes(self, check, params, max_n):
        # Every closed-form list is indexed by the leg count, so no size
        # needs a clamp; 6 and 7 read the top entries.
        report = check(max_n=max_n, **params)
        assert report.status == "pass"
        assert report.params == {**params, "max_n": max_n}

    @pytest.mark.parametrize("max_n", (2, 3, 6))
    def test_interaction_cancellation_reads_the_bell_terms_once(self, monkeypatch, max_n):
        calls = []
        terms_of = verify.series.coupling_linear_terms

        def counted(s, max_n):
            calls.append((s, max_n))
            return terms_of(s, max_n)

        monkeypatch.setattr(verify.series, "coupling_linear_terms", counted)
        assert check_interaction_cancellation(s=3, max_n=max_n).status == "pass"
        assert calls == ([(3, max_n)] if max_n >= 3 else [])

    def test_bn_inverts_the_series_once(self, monkeypatch):
        orders = []
        invert = verify.series.invert

        def counted(f):
            orders.append(f.order)
            return invert(f)

        monkeypatch.setattr(verify.series, "invert", counted)
        assert check_bn(max_n=5).status == "pass"
        assert orders == [5]

    def test_the_default_suite_builds_one_closed_form_table_per_check(self, monkeypatch):
        built = []
        table = verify.series._bell_table

        def counted(args):
            built.append(len(args))
            return table(args)

        monkeypatch.setattr(verify.series, "_bell_table", counted)
        assert suite_passed(run_suite(default_suite()))
        # 13 tables of closed forms b_k: one in each of the six checks that
        # read them, one for each n of the reduced b'_n oracle (5) and two
        # in the Bell-sum terms (s = 3, 4).  The other 38: the series
        # inverse (1), the interaction vertices (27), the display vertices
        # (6) and the Bell-sum terms' own lists (4).
        assert len(built) == 51

    def test_bn_fails_against_a_broken_inverse(self, monkeypatch):
        invert = verify.series.invert

        def broken(f):
            out = invert(f)
            out.coeffs[4] = out.coeffs[4] + RF_ONE
            return out

        monkeypatch.setattr(verify.series, "invert", broken)
        report = check_bn(max_n=5)
        assert report.status == "fail"
        assert report.witness["n"] == 4 and report.witness["compared"] == "enumerated vs series inverse"


class TestFaultInjection:
    def test_perturbed_coefficient_fails_with_witness(self):
        def tamper(n, value):
            # Flip exactly one coefficient at n = 3.
            return value.scaled(Scalar(-1)) if n == 3 else value

        report = check_bn(max_n=4, tamper=tamper)
        assert report.status == "fail"
        assert report.witness is not None
        assert report.witness["n"] == 3
        assert report.witness["residual"]

    def test_perturbed_bell_formula_fails(self):
        def tamper(n, value):
            return value + rf(generic_symbol("fault")) if n == 4 else value

        report = check_interaction_cancellation(s=3, max_n=4, tamper=tamper)
        assert report.status == "fail"
        assert report.witness["n"] == 4

    def test_per_valence_term_moved_to_the_next_valence_fails(self, monkeypatch):
        # The sum of the terms, and so "Bell formula vs delta", is unchanged.
        terms_of = verify.series.coupling_linear_terms

        def shifted(s, max_n):
            table = terms_of(s, max_n)
            terms = table[s]
            terms[s + 1] = terms.get(s + 1, RF_ZERO) + terms.pop(s)
            return table

        monkeypatch.setattr(verify.series, "coupling_linear_terms", shifted)
        report = check_interaction_cancellation(s=3, max_n=5)
        assert report.status == "fail"
        assert {key: report.witness[key] for key in ("n", "valence", "compared")} == {
            "n": 3,
            "valence": 3,
            "compared": "per-valence term",
        }

    def test_perturbed_bprime_fails(self):
        def tamper(n, value):
            return value.scaled(Scalar(2)) if n == 2 else value

        report = check_bprime(s=3, max_n=3, tamper=tamper)
        assert report.status == "fail"
        assert report.witness["n"] == 2

    def test_witness_residual_reproduces(self):
        def tamper(n, value):
            return value.scaled(Scalar(-1)) if n == 2 else value

        report = check_bn(max_n=3, tamper=tamper)
        from diffeorules.series import tree_sum_closed_form

        enum = tree_sum_closed_form(2)
        residual = enum - enum.scaled(Scalar(-1))
        assert report.witness["residual"] == str(residual)


def plus_one_at(step):
    """Wrap a function whose first argument is a step ``n`` so that its value
    is off by one at ``step`` only."""

    def wrap(fn):
        def faulty(n, *args, **kwargs):
            value = fn(n, *args, **kwargs)
            return value + RF_ONE if n == step else value

        return faulty

    return wrap


def plus_one_in_entry(step):
    """Wrap a function that returns a list of values indexed by a step ``n``
    so that its entry at ``step`` is off by one."""

    def wrap(fn):
        def faulty(*args, **kwargs):
            values = fn(*args, **kwargs)
            values[step] = values[step] + RF_ONE
            return values

        return faulty

    return wrap


def drop_first_imaginary_term(r):
    terms = dict(r.poly.terms)
    first = next((m for m, c in terms.items() if c.im), None)
    if first is not None:
        del terms[first]
    return RationalFunction(Polynomial(terms))


class TestOracleFaults:
    """Every check fails when the oracle it compares against is broken; the
    five checks without a ``tamper`` hook are broken from outside."""

    @pytest.mark.parametrize(
        "module, name, fault, run, witness",
        [
            (
                # Entry 3 of [None, b_1, b_2, ...] is b_3.
                verify.series, "tree_sum_closed_forms", plus_one_in_entry(3), lambda: check_smatrix_free(max_n=5),
                {"n": 4, "offshell_leg": 1, "compared": "A1 single leg"},
            ),
            (
                verify.series, "tree_sum_closed_forms", plus_one_in_entry(3), lambda: check_generalized(max_n=5),
                {"n": 4, "offshell_leg": 1, "compared": "A1 generalized"},
            ),
            (
                verify.series, "tree_sum_closed_forms", plus_one_in_entry(3), lambda: check_adiabatic(s=3, max_n=4),
                {"k": 3, "compared": "closed-form b_k"},
            ),
            (
                # The check reads every b_n of the recursion off one memo.
                verify.trees, "_recursive_tree_sums", plus_one_in_entry(2), lambda: check_generalized(max_n=3),
                {"n": 2, "compared": "recursion vs enumeration"},
            ),
            (
                verify.rules, "nonlocal_beta", plus_one_at(2), lambda: check_nonlocal(max_n=3),
                {"n": 2, "compared": "identity transform beta"},
            ),
        ],
        ids=["smatrix_free", "generalized one offshell", "adiabatic", "generalized", "nonlocal"],
    )
    def test_broken_oracle_fails_at_its_step(self, module, name, fault, run, witness, monkeypatch):
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        report = run()
        assert report.status == "fail"
        assert {key: report.witness[key] for key in witness} == witness

    def test_broken_subset_vertex_fails_kinematics(self, monkeypatch):
        vertex = verify.rules.generalized_vertex

        def faulty(blocks, *args, **kwargs):
            value = vertex(blocks, *args, **kwargs)
            return value + RF_ONE if len(blocks) == 4 else value

        monkeypatch.setattr(verify.rules, "generalized_vertex", faulty)
        report = check_kinematics(n_values=(3, 4), trials=2)
        assert report.status == "fail"
        assert report.witness["n"] == 4
        assert report.witness["trial"] == 0
        assert report.witness["compared"] == "display vs subset vertex"

    def test_broken_display_vertex_fails_kinematics(self, monkeypatch):
        vertex = verify.rules.free_vertex

        def faulty(n, *args, **kwargs):
            value = vertex(n, *args, **kwargs)
            return value + RF_ONE if n == 5 else value

        monkeypatch.setattr(verify.rules, "free_vertex", faulty)
        report = check_kinematics(n_values=(3, 4, 5), trials=2)
        assert report.status == "fail"
        assert {key: report.witness[key] for key in ("n", "trial", "compared")} == {
            "n": 5,
            "trial": 0,
            "compared": "display vs subset vertex",
        }

    @pytest.mark.parametrize(
        "fault",
        [
            lambda evaluate, r, values: Scalar(0),
            lambda evaluate, r, values: evaluate(drop_first_imaginary_term(r), values),
        ],
        ids=["zero", "drops a term"],
    )
    def test_broken_evaluator_fails_kinematics(self, fault, monkeypatch):
        # Both faults pass the conservation identity (zero, all terms real),
        # the display vs subset comparison and determinism.
        evaluate = RationalFunction.evaluate
        monkeypatch.setattr(RationalFunction, "evaluate", lambda r, values: fault(evaluate, r, values))
        report = check_kinematics(n_values=(3, 4), trials=2)
        assert report.status == "fail"
        assert {key: report.witness[key] for key in ("n", "trial", "compared")} == {
            "n": 3,
            "trial": 0,
            "compared": "evaluator vs substitution",
        }

    def test_broken_nonlocal_beta_fails_its_generating_function(self, monkeypatch):
        beta = verify.rules.nonlocal_beta

        def faulty(n, spec):
            value = beta(n, spec)
            return value + RF_ONE if n == 2 and spec.max_alpha() else value

        monkeypatch.setattr(verify.rules, "nonlocal_beta", faulty)
        spec = NonlocalSpec(alpha={1: rf(Fraction(1, 3)), 2: rf(Fraction(2, 5))})
        report = check_nonlocal(max_n=4, spec=spec)
        assert report.status == "fail"
        assert report.witness["n"] == 2
        assert report.witness["compared"] == "beta against (t - msq) alpha(t)^2"

    def test_check_stops_at_its_first_failed_comparison(self):
        steps = []

        def tamper(n, value):
            steps.append(n)
            return value + RF_ONE if n == 3 else value

        report = check_bn(max_n=6, tamper=tamper)
        assert report.witness["n"] == 3
        assert steps == [2, 3]

    def test_errors_other_than_a_failed_comparison_propagate(self):
        def tamper(n, value):
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            check_bn(max_n=3, tamper=tamper)


class TestSuite:
    def test_empty_suite_passes(self):
        reports = run_suite([])
        assert reports == [] and suite_passed(reports)

    def test_reports_follow_spec_order_and_are_deterministic(self):
        specs = [
            CheckSpec("bn", {"max_n": 4}),
            CheckSpec("kinematics", {"n_values": [3], "trials": 5, "seed": 7}),
            CheckSpec("bprime", {"s": 3, "max_n": 3}),
        ]
        first = run_suite(specs)
        second = run_suite(specs)
        assert [r.name for r in first] == ["bn", "kinematics", "bprime"]
        assert [(r.name, r.params, r.status, r.witness) for r in first] == [
            (r.name, r.params, r.status, r.witness) for r in second
        ]

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_suite([CheckSpec("no_such_check", {})])

    def test_default_suite_names(self):
        names = [s.name for s in default_suite()]
        assert names[0] == "bn"
        assert "adiabatic" in names and "kinematics" in names
        assert set(names) <= set(check_names())

    def test_failing_report_requires_witness(self):
        with pytest.raises(ValueError):
            Report("bn", {}, "fail", None)

    def test_report_serialization_round_trip(self):
        report = check_bn(max_n=3)
        payload = report.to_dict()
        assert payload["name"] == "bn"
        assert payload["status"] == "pass"
        assert isinstance(payload["wall_ms"], int)
