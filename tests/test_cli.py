import json

import pytest

from fptlib import FieldSpec, parse_form
from fptlib.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFpt:
    def test_exact_quintic(self, capsys):
        code, out, _ = run(capsys, "fpt", "--p", "7", "--poly", "x^5+y^5")
        assert code == 0
        assert out.strip() == "19/49 (exact, truncation-candidate, L=2)"

    def test_monomial(self, capsys):
        code, out, _ = run(capsys, "fpt", "--p", "3", "--poly", "x^2*y^3")
        assert code == 0
        assert out.strip() == "1/3 (exact, monomial)"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "fpt", "--p", "5", "--poly", "(unparsable")
        assert code == 2
        assert "parse error at offset" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "fpt", "--p", "7", "--poly", "x^5+y^5",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "19/49"
        assert payload["method"] == "truncation-candidate"
        assert payload["certificates"][-1] == {"N": 19, "e": 2, "member": True}
        assert payload["schema_version"] == 1

    def test_interval_output(self, capsys):
        # x*(x^6+x^3*y^3+y^6) = x*(x+2y)^6 over F_3 has a dominant linear
        # factor; x^2*y^2*(x+y) has none and is no power: an interval
        code, out, _ = run(capsys, "fpt", "--p", "3",
                           "--poly", "x*(x^6+x^3*y^3+y^6)", "--e-cap", "4")
        assert code == 0
        assert out.strip() == "1/6 (exact, dominant-factor)"
        code, out, _ = run(capsys, "fpt", "--p", "7", "--poly", "x^2*y^2*(x+y)", "--e-cap", "4")
        assert code == 0
        assert out.strip() == "(955/2401, 956/2401] (interval, bounded-fallback)"

    def test_residue_window_budget_exit_code(self, capsys):
        # the default depth 8 would need residues of millions of terms
        code, out, err = run(capsys, "fpt", "--p", "13", "--poly", "x^3*y^2+x*y^4")
        assert code == 3 and out == ""
        assert "budget" in err

    def test_huge_exponent_exit_code(self, capsys):
        # refused before any product, not expanded one factor at a time
        code, out, err = run(capsys, "fpt", "--p", "5", "--poly", "x^4294967296*y")
        assert code == 3 and out == ""
        assert "2^31" in err

    @pytest.mark.parametrize("poly,offset", [("x^²", 2), ("x²", 1), ("x1²", 2), ("x^٣*y", 2)])
    def test_non_ascii_digits_are_bad_input(self, capsys, poly, offset):
        # only ASCII 0-9 are digits: "x^٣*y" is not read as x^3*y
        code, out, err = run(capsys, "fpt", "--p", "5", "--poly", poly)
        assert code == 2 and out == ""
        assert err.startswith(f"error: parse error at offset {offset}: ")

    def test_long_numbers_read_as_short_ones(self, capsys):
        # runs of 5,000 digits, past the 4,300 that int() converts: a
        # coefficient is read mod p (5,000 ones are 4 mod 7), and leading
        # zeros of an exponent or a variable index do not count
        ones, zeros = "1" * 5000, "0" * 4999
        for poly, n, short in [(f"{ones}*x^5+y^5", 2, "4*x^5+y^5"),
                               (f"x^{zeros}2*y", 2, "x^2*y"),
                               (f"x1^2*x2+x{zeros}3^3", 3, "x1^2*x2+x3^3")]:
            want = run(capsys, "fpt", "--p", "7", "--n", str(n), "--poly", short)
            assert want[0] == 0
            assert run(capsys, "fpt", "--p", "7", "--n", str(n), "--poly", poly) == want
        assert parse_form(f"{ones}*x", FieldSpec(7)).terms == {(1,): 4}

    @pytest.mark.parametrize("base,tail", [("x", ""), ("2", "*x"), ("(x*y)", "")])
    def test_long_exponent_is_over_budget(self, capsys, base, tail):
        poly = f"{base}^1{'0' * 4999}{tail}"
        code, out, err = run(capsys, "fpt", "--p", "5", "--poly", poly)
        assert (code, out) == (3, "")
        assert err == "error: an exponent reaches 2^31; exponents must stay below it\n"

    @pytest.mark.parametrize("n", [None, "3"])
    def test_long_variable_index_is_bad_input(self, capsys, n):
        index = "9" * 5000
        message = (f"variable index {index} exceeds n=3" if n else
                   "more than 12 variables need an explicit n")
        code, out, err = run(capsys, "fpt", "--p", "5", *(["--n", n] if n else []),
                             "--poly", f"x1*x{index}")
        assert (code, out, err) == (2, "", f"error: parse error at offset 5004: {message}\n")

    def test_n_below_one_is_bad_input(self, capsys):
        code, out, err = run(capsys, "fpt", "--p", "5", "--n", "0", "--poly", "x^2")
        assert (code, out, err) == (2, "", "error: need n >= 1 variables, got 0\n")

    def test_huge_prime_degree(self, capsys):
        # the perfect-power check tries only the divisors of d = 2^31 - 1
        code, out, _ = run(capsys, "fpt", "--p", "5", "--n", "3",
                           "--poly", "x1^2147483647+x2^2147483647")
        assert code == 0
        assert out.strip() == "(0, 1/625] (interval, bounded-fallback)"

    def test_perfect_power_check_budget_exit_code(self, capsys):
        # a septic in 8 variables is no power; its depth-4 interval needs a
        # residue over the 2^18-term budget: valid input, not bad input
        code, out, err = run(capsys, "fpt", "--p", "5", "--n", "8",
                             "--poly", "x1^7+x2^7+x3^7+x4^7+x5^7+x6^7+x7^7+x8^7")
        assert code == 3 and out == ""
        assert "budget" in err

    def test_root_powers_budget_exit_code(self, capsys):
        # the candidate 20th root x12 + (x1+...+x11)/20 passes every term
        # check; its powers g^1..g^19 would hold about 5*10^7 terms
        linear = "+".join(f"x{i}" for i in range(1, 12))
        code, out, err = run(capsys, "fpt", "--p", "101", "--n", "12",
                             "--poly", f"x12^20+({linear})*x12^19+x1^20")
        assert code == 3 and out == ""
        assert "budget" in err

    def test_twelve_variable_quadric(self, capsys):
        quadric = ("x1^2+2*x1*x2+3*x1*x3+4*x1*x4+5*x2^2+6*x2*x3+x2*x4+2*x3^2+3*x3*x4+4*x4^2+"
                   + "+".join(f"x{i}^2" for i in range(5, 13)))
        code, out, _ = run(capsys, "fpt", "--p", "7", "--e-cap", "1", "--poly", quadric)
        assert code == 0
        assert out.strip() == "(6/7, 1] (interval, bounded-fallback)"

    def test_explicit_e_cap_honored_for_three_variables(self, capsys):
        code, out, _ = run(capsys, "fpt", "--p", "5", "--n", "3",
                           "--poly", "x1^2*x2+x3^3", "--e-cap", "6")
        assert code == 0
        assert out.strip() == "(12499/15625, 4/5] (interval, bounded-fallback)"
        # the default for n >= 3 stays at depth 4
        code, out, _ = run(capsys, "fpt", "--p", "5", "--n", "3", "--poly", "x1^2*x2+x3^3")
        assert code == 0
        assert out.strip() == "(499/625, 4/5] (interval, bounded-fallback)"

    def test_explicit_e_cap_refused_over_budget(self, capsys):
        # depth 4 on this cubic in 4 variables is refused, not lowered to a
        # depth within the budget
        code, out, err = run(capsys, "fpt", "--p", "7", "--n", "4",
                             "--poly", "x1^3+x2^3+x3^3+x4^3+x1*x2*x3", "--e-cap", "4")
        assert code == 3 and out == ""
        assert "budget" in err
        # nu's walk holds residues of f^N only for N near nu, so a ternary
        # cubic answers at depth 6
        code, out, _ = run(capsys, "fpt", "--p", "7", "--n", "3",
                           "--poly", "x1^3+x2^3+x3^3+x1*x2*x3", "--e-cap", "6")
        assert code == 0
        assert out.strip() == "(117648/117649, 1] (interval, bounded-fallback)"

    @pytest.mark.parametrize("poly", ["x^5+y^5", "x^2*y^2*(x+y)", "x1^2*x2+x3^3"],
                             ids=["exact", "interval", "ternary"])
    @pytest.mark.parametrize("e_cap", ["0", "-3"])
    def test_e_cap_below_one_refused(self, capsys, poly, e_cap):
        # refused whether or not the form needs an interval
        code, out, err = run(capsys, "fpt", "--p", "7", "--poly", poly, "--e-cap", e_cap)
        assert code == 2 and not out
        assert err.startswith("error: need e_cap >= 1")

    @pytest.mark.parametrize("argv", [["fpt", "--p", "7", "--poly", "x^5+y^5"],
                                      ["generic", "--n", "2", "--d", "5", "--p", "7"],
                                      ["witness", "--d", "6", "--p", "5", "--target", "1/5",
                                       "--family", "0,0,3"],
                                      ["verify-paper", "--d", "4", "--primes", "3"]],
                             ids=["fpt", "generic", "witness", "verify-paper"])
    def test_csv_refused_without_rows(self, capsys, argv):
        # only census and candidates have rows to print as csv
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestGeneric:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "generic", "--n", "2", "--d", "7", "--p", "3")
        assert code == 0 and out.strip() == "23/81, L=4"
        code, out, _ = run(capsys, "generic", "--n", "2", "--d", "6", "--p", "5")
        assert code == 0 and out.strip() == "1/3, L=absent"
        code, out, _ = run(capsys, "generic", "--n", "3", "--d", "3", "--p", "2")
        assert code == 0 and out.strip() == "1, L=absent"

    def test_trace_in_json(self, capsys):
        code, out, _ = run(capsys, "generic", "--n", "2", "--d", "5", "--p", "7",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["value"] == "137/343"
        assert len(payload["inequality_trace"]) == 3


class TestCandidates:
    def test_exclusion_shown(self, capsys):
        code, out, _ = run(capsys, "candidates", "--d", "19", "--p", "11")
        assert code == 0
        line = next(l for l in out.splitlines() if l.strip().startswith("L=2"))
        assert "excluded=y" in line and "inadmissible" in line

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "candidates", "--d", "5", "--p", "7",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("L,value,cond_I")

    def test_l_cap_below_one(self, capsys):
        # 2/4 over F_2 lists places up to the cap, so a cap below 1 would
        # print an empty table; it is refused instead
        for cap in ("0", "-3"):
            code, out, err = run(capsys, "candidates", "--d", "4", "--p", "2", "--l-cap", cap)
            assert code == 2 and not out
            assert err.startswith("error: need l_cap >= 1")


class TestCensus:
    def test_small_census_text(self, capsys):
        code, out, _ = run(capsys, "census", "--d", "4", "--p", "3", "--k", "1")
        assert code == 0
        assert "1/2: reduced=48" in out
        assert "1/3: reduced=24" in out

    def test_budget_refusal(self, capsys):
        code, _, err = run(capsys, "census", "--d", "9", "--p", "5",
                           "--budget", "100")
        assert code == 3
        assert "budget" in err

    def test_bad_workers_variable(self, capsys, monkeypatch):
        # a census runs in one process: there is no --workers option, and
        # FPTLIB_WORKERS is not read
        with pytest.raises(SystemExit) as exc:
            main(["census", "--d", "3", "--p", "3", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        monkeypatch.setenv("FPTLIB_WORKERS", "abc")
        code, out, _ = run(capsys, "census", "--d", "3", "--p", "3")
        assert code == 0 and out.startswith("census d=3 over F_3^1: 40 forms")

    def test_negative_budget_refused(self, capsys):
        # bad input (exit 2), not a budget refusal (exit 3)
        code, out, err = run(capsys, "census", "--d", "3", "--p", "3", "--budget", "-1")
        assert code == 2 and not out
        assert err.startswith("error: need budget >= 0")

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "census", "--d", "3", "--p", "2", "--format", "csv")
        assert code == 0
        assert out == ("value,count_reduced,count_nonreduced,witness\r\n"
                       "1/3,0,3,x^3\r\n1/2,6,6,x^3+y^3\r\n")

    @pytest.mark.parametrize("e_cap", ["0", "-3"])
    def test_e_cap_below_one_refused(self, capsys, e_cap):
        code, out, err = run(capsys, "census", "--d", "4", "--p", "3", "--e-cap", e_cap,
                             "--format", "json")
        assert code == 2 and not out
        assert err.startswith("error: need e_cap >= 1")

    def test_reduced_only_json(self, capsys):
        code, out, _ = run(capsys, "census", "--d", "3", "--p", "2",
                           "--reduced-only", "--format", "json")
        payload = json.loads(out)
        # xy(x+y), the three linear*irreducible-quadratic products, and the
        # two irreducible cubics: six reduced cubics over F_2, all at 1/2
        assert payload["values"]["1/2"]["count_reduced"] == 6
        assert payload["skipped_nonreduced"] > 0


class TestWitness:
    def test_sextic(self, capsys):
        code, out, _ = run(capsys, "witness", "--d", "6", "--p", "5",
                           "--target", "1/5", "--family", "0,0,3")
        assert code == 0
        assert "a=0 over F_5" in out

    def test_not_found_is_reported(self, capsys):
        code, out, _ = run(capsys, "witness", "--d", "7", "--p", "3",
                           "--target", "2/9", "--family", "1,0,3")
        assert code == 0
        assert "no witness found" in out

    def test_validation(self, capsys):
        code, _, err = run(capsys, "witness", "--d", "6", "--p", "5",
                           "--target", "1/5", "--family", "1,0,3")
        assert code == 2

    def test_family_not_integers(self, capsys):
        code, _, err = run(capsys, "witness", "--d", "6", "--p", "5",
                           "--target", "1/5", "--family", "a,b,c")
        assert code == 2
        assert err.startswith("error: family")

    def test_k_max_below_one(self, capsys):
        # F_5^0 would search nothing, so it is refused rather than reported
        code, out, err = run(capsys, "witness", "--d", "6", "--p", "5",
                             "--target", "1/5", "--family", "0,0,3", "--k-max", "0")
        assert code == 2 and not out
        assert err.startswith("error: need k_max >= 1")


class TestVerifyPaper:
    def test_quartics_pass(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--d", "4",
                           "--primes", "2,3,5,7")
        assert code == 0
        assert out.count("PASS") == 4

    def test_quintics_pass_including_char_two(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--d", "5", "--primes", "2,7")
        assert code == 0

    def test_json_matrix(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--d", "6", "--primes", "2,3",
                           "--format", "json")
        payload = json.loads(out)
        assert {row["p"]: row["status"] for row in payload["matrix"]} == \
            {2: "PASS", 3: "PASS"}
        _, out2, _ = run(capsys, "verify-paper", "--d", "6", "--primes", "2,3",
                         "--format", "json")
        assert out2 == out

    @pytest.mark.parametrize("primes", ["2,x", ""])
    def test_primes_not_integers(self, capsys, primes):
        code, _, err = run(capsys, "verify-paper", "--d", "5", "--primes", primes)
        assert code == 2
        assert err.startswith("error: --primes")

    @pytest.mark.parametrize("primes,repeated", [("3,3", 3), ("2,5,7,5,2", 5)])
    def test_repeated_prime_refused(self, capsys, primes, repeated):
        # each prime is censused once; a repeat is bad input, not a second row
        code, out, err = run(capsys, "verify-paper", "--d", "4", "--primes", primes)
        assert (code, out) == (2, "")
        assert err == f"error: --primes names {repeated} more than once\n"

    def test_negative_budget_refused(self, capsys):
        # a negative budget used to skip every census and print PASS
        code, out, err = run(capsys, "verify-paper", "--d", "5", "--primes", "2,7",
                             "--budget", "-5")
        assert code == 2 and not out
        assert err.startswith("error: need budget >= 0")

    def test_rejects_out_of_range_degree(self, capsys):
        code, _, err = run(capsys, "verify-paper", "--d", "9", "--primes", "2")
        assert code == 2

    @pytest.mark.slow
    @pytest.mark.parametrize("d,p", [(8, 5), (5, 13)])
    def test_default_budget_covers_rows(self, capsys, d, p):
        # 488,281 and 402,234 forms: over the old default of 200,000, within
        # the default of 7,000,000, so the census runs and must match the table
        code, out, _ = run(capsys, "verify-paper", "--d", str(d), "--primes", str(p))
        assert code == 0
        assert f"p={p}: PASS" in out and "observed over F_p" in out


class TestDeterminism:
    def test_identical_invocations_identical_output(self, capsys):
        _, out1, _ = run(capsys, "census", "--d", "4", "--p", "3",
                         "--format", "json")
        _, out2, _ = run(capsys, "census", "--d", "4", "--p", "3",
                         "--format", "json")
        assert out1 == out2

    def test_reports_carry_no_floats(self, capsys):
        def no_floats(node):
            if isinstance(node, float):
                return False
            if isinstance(node, dict):
                return all(no_floats(v) for v in node.values())
            if isinstance(node, list):
                return all(no_floats(v) for v in node)
            return True

        for argv in (["fpt", "--p", "7", "--poly", "x^5+y^5"],
                     ["generic", "--n", "2", "--d", "5", "--p", "7"],
                     ["candidates", "--d", "5", "--p", "7"],
                     ["census", "--d", "3", "--p", "3"]):
            _, out, _ = run(capsys, *argv, "--format", "json")
            assert no_floats(json.loads(out))
