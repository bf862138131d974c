import json
import re
import shlex
from pathlib import Path

import pytest

from helpers import engineered_k3_vector, run_python
from latorb import cli, intlin, isometries, jsonio
from latorb.cli import main

T4_U = "[1,0,0,0,0,0]"
SYMBOLIC_Y = json.dumps(
    {
        "symbols": [
            {"tag": "sqrt2", "approx": 1.4142135623730951},
            {"tag": "sqrt3", "approx": 1.7320508075688772},
        ],
        "coeffs": [
            ["0", "0", "0"],
            ["0", "0", "0"],
            ["0", "1", "0"],
            ["0", "0", "1"],
            ["1", "0", "0"],
            ["0", "0", "0"],
        ],
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_process(*argv):
    return run_python("-m", "latorb.cli", *argv)


def test_lattice_info_models(capsys):
    data = run_json(capsys, "lattice", "info", "--model", "k3")
    assert data == {
        "rank": 22,
        "signature": [3, 19],
        "even": True,
        "unimodular": True,
    }
    data = run_json(capsys, "lattice", "info", "--model", "t4")
    assert data["rank"] == 6
    assert data["signature"] == [3, 3]


def test_lattice_info_accepts_inline_lattice(capsys):
    data = run_json(
        capsys, "lattice", "info", "--lattice", '{"rank": 2, "gram": [[0,1],[1,0]]}'
    )
    assert data["signature"] == [1, 1]
    assert data["unimodular"] is True


def test_lattice_split_example(capsys):
    data = run_json(
        capsys, "lattice", "split", "--model", "t4", "--u", "[1,0,0,1,0,0]"
    )
    assert data["z"] == [0, 1, 0, 0, 0, 0]
    assert data["lprime"]["basis"] == [
        [0, 1, -1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ]


def test_domain_error_exit_two_with_payload(capsys):
    code, out, err = run(
        capsys, "lattice", "split", "--model", "t4", "--u", "[2,0,0,0,0,0]"
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "NotPrimitive"
    assert "message" in payload


def test_parse_errors_exit_one(capsys):
    code, _, err = run(capsys, "lattice", "split", "--model", "t4", "--u", "[oops")
    assert code == 1 and "input error" in err
    code, _, err = run(capsys, "lattice", "split", "--model", "t4", "--u", "missing.json")
    assert code == 1
    code, _, err = run(capsys, "bogus-verb")
    assert code == 1 and "argument error" in err
    code, _, err = run(capsys, "lattice", "inner", "--model", "t4", "--v", "[1]", "--w", "[1]")
    assert code == 2  # wrong dimension is a domain rejection, not a parse error
    assert json.loads(err)["error"] == "DimensionMismatch"


def test_inner_big_values_become_decimal_strings(capsys):
    big = 2 ** 40
    v = json.dumps([big, big, 0, 0, 0, 0])
    data = run_json(capsys, "lattice", "inner", "--model", "t4", "--v", v, "--w", v)
    assert data["value"] == str(2 * big * big)  # 2^81 exceeds the int64 wire size


def test_jsonio_int_codec_round_trip():
    for x in (0, 7, -(2 ** 63) + 1, 2 ** 63 - 1, 2 ** 64, -(2 ** 100)):
        assert jsonio.decode_int(jsonio.encode_int(x)) == x
    assert isinstance(jsonio.encode_int(2 ** 63 - 1), int)
    assert isinstance(jsonio.encode_int(2 ** 63), str)
    with pytest.raises(ValueError):
        jsonio.decode_int(True)
    with pytest.raises(ValueError):
        jsonio.decode_int(1.5)


# U ⊕ U ⊕ <1>: odd, so no hyperbolic plane splits off at u
ODD_LATTICE = json.dumps(
    {"gram": [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0],
              [0, 0, 0, 0, 1]]}
)


@pytest.mark.parametrize(
    "argv",
    [
        ["isom", "generators", "--lattice", ODD_LATTICE, "--u", "[1,0,0,0,0]"],
        ["explore", "--lattice", ODD_LATTICE, "--u", "[1,0,0,0,0]",
         "--y0", "[0,0,0,0,1]", "--targets", "[[0,0,0,0,1]]", "--depth", "1"],
    ],
    ids=["isom-generators", "explore"],
)
def test_stabilizer_verbs_on_an_odd_lattice_are_domain_errors(capsys, argv):
    # the stabilizer generators are built on the split at u, so both verbs
    # reject the lattice as split_hyperbolic does
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "NoHyperbolicSplit"


def test_readme_lists_the_verbs_of_the_cli_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    stated = re.findall(r"`([^`]*)`", readme.split("\nVerbs: ", 1)[1].split("\n\n", 1)[0])
    groups = {}
    for group, verb, *_ in cli._VERBS:
        groups.setdefault(group, []).append(verb)
    table = [
        group if verbs == [None] else "%s {%s}" % (group, ",".join(verbs))
        for group, verbs in groups.items()
    ]
    assert stated == table


def test_transvection_then_check_round_trip(capsys):
    g = run_json(
        capsys,
        "isom", "transvect", "--model", "t4",
        "--e", T4_U, "--a", "[0,0,0,1,0,0]",
    )
    result = run_json(
        capsys,
        "isom", "check", "--model", "t4",
        "--g", json.dumps(g), "--u", T4_U,
    )
    assert result == {"det": 1, "so_plus": True, "in_gu": True}


def test_isom_check_reports_determinant_minus_one(capsys):
    # swapping the first hyperbolic pair of T⁴ preserves the form and has
    # determinant −1: it is reported, with no SO⁺ or stabilizer membership
    swap = [list(r) for r in intlin.identity(6)]
    swap[0], swap[1] = swap[1], swap[0]
    g = json.dumps(swap)
    result = run_json(capsys, "isom", "check", "--model", "t4", "--g", g)
    assert result == {"det": -1, "so_plus": False}
    result = run_json(
        capsys,
        "isom", "check", "--model", "t4",
        "--g", g, "--u", "[0,0,1,0,0,0]", "--y", SYMBOLIC_Y,
    )
    assert result == {
        "det": -1, "so_plus": False, "in_gu": False, "in_hy": False, "in_ky": False
    }


def test_isom_check_projects_onto_the_positive_frame_once(capsys, monkeypatch):
    # so_plus, in_gu, in_hy and in_ky share one SO⁺ verdict: the Bareiss
    # determinants of the model's 2×2 blocks and 6×6 Gram, one 3×3
    # projection, and one determinant of g, taken mod 3
    g = run_json(
        capsys,
        "isom", "transvect", "--model", "t4",
        "--e", T4_U, "--a", "[0,0,0,1,0,0]",
    )
    sizes, mod3_sizes = [], []
    real, real_mod3 = intlin.det_bareiss, isometries._det_mod3

    def counted(m):
        sizes.append(len(m))
        return real(m)

    def counted_mod3(m):
        mod3_sizes.append(len(m))
        return real_mod3(m)

    monkeypatch.setattr(intlin, "det_bareiss", counted)
    monkeypatch.setattr(isometries, "_det_mod3", counted_mod3)
    result = run_json(
        capsys,
        "isom", "check", "--model", "t4",
        "--g", json.dumps(g), "--u", T4_U, "--y", SYMBOLIC_Y,
    )
    assert result == {
        "det": 1, "so_plus": True, "in_gu": True, "in_hy": False, "in_ky": True
    }
    assert sorted(sizes) == [2, 2, 2, 3, 6]
    assert mod3_sizes == [6]

def test_map_isotropic_verb(capsys):
    g = run_json(
        capsys,
        "isom", "map-isotropic", "--model", "t4",
        "--u", T4_U, "--v", "[0,0,1,0,0,0]",
    )
    row_images = g["matrix"]
    applied = [row_images[i][0] for i in range(6)]
    assert applied == [0, 0, 1, 0, 0, 0]


def test_generators_verb_yields_isometries(capsys):
    data = run_json(capsys, "isom", "generators", "--model", "t4", "--u", T4_U)
    assert len(data["generators"]) >= 4
    assert all("matrix" in g for g in data["generators"])


def test_irr_verbs_always_state_the_assumption(capsys):
    data = run_json(
        capsys, "irr", "check-u", "--model", "t4", "--u", T4_U, "--y", SYMBOLIC_Y
    )
    assert data["u_orthoirrational"] is True
    assert "independent" in data["assumption"]
    cert = run_json(
        capsys, "irr", "certify", "--model", "t4", "--y", SYMBOLIC_Y, "--height", "3"
    )
    assert cert["verdict"] == "Certified"
    assert "independent" in cert["assumption"]
    assert cert["witness_u"] is not None


def test_irr_find_isotropic_verb(capsys):
    data = run_json(
        capsys, "irr", "find-isotropic", "--model", "t4", "--y", SYMBOLIC_Y,
        "--height", "2",
    )
    assert data["vectors"]
    assert all(len(v) == 6 for v in data["vectors"])


@pytest.mark.parametrize("height", ["0", "1"])
def test_irr_find_isotropic_rejects_a_short_y_at_every_height(capsys, height):
    code, out, err = run(
        capsys, "irr", "find-isotropic", "--model", "t4", "--y", "[1,0,0,0,0]",
        "--height", height,
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DimensionMismatch"


def test_torus_approx_zero_target(capsys):
    data = run_json(
        capsys,
        "torus", "approx",
        "--target", '{"C":[[1,0],[0,1]],"D":[[0,0],[0,0]]}',
        "--eps", "1e-2",
    )
    assert data["err"] == 0.0
    assert data["B"] == [[0, 0], [0, 0]]


def test_torus_approx_failure_payload(capsys):
    code, out, err = run(
        capsys,
        "torus", "approx",
        "--target", '{"C":[[1,0],[0,1]],"D":[[0,0.5],[-0.5,0]]}',
        "--eps", "1e-9", "--delta", "0", "--budget", "1",
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "DidNotConverge"
    assert payload["incumbent"]["err"] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "eps, delta", [("nan", "0.1"), ("inf", "0.1"), ("1e-2", "nan"), ("1e-2", "inf")]
)
def test_torus_approx_rejects_non_finite_tolerance(capsys, eps, delta):
    code, out, err = run(
        capsys,
        "torus", "approx",
        "--target", '{"C":[[1.0,0.0],[0.0,1.0]],"D":[[0.0,-0.3],[0.3,0.0]]}',
        "--eps", eps, "--delta", delta,
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidTolerance"


def test_torus_act_verb(capsys):
    data = run_json(
        capsys,
        "torus", "act",
        "--form", '{"C":[[1,0],[0,1]],"D":[[0,0],[0,0]]}',
        "--shear", '{"B":[[0,1],[0,0]]}',
    )
    assert data["D"] == [[0.0, 1.0], [-1.0, 0.0]]
    assert data["C"] == [[1.0, 0.0], [0.0, 1.0]]


def test_torus_act_with_a_nontrivial_a(capsys):
    # C′ = AᵀC has integer entries and det 1, but its float determinant
    # misses 1 by 1.7e-10: the det check scales with the size of C′
    data = run_json(
        capsys,
        "torus", "act",
        "--form", '{"C":[[-9,-16],[-14,-25]],'
        '"D":[[0,0.49244133244068333],[-0.49244133244068333,0]]}',
        "--shear", '{"B":[[2,-3],[0,2]],"A":[[31,136],[-75,-329]]}',
    )
    assert data["C"] == [[771.0, 1379.0], [3382.0, 6049.0]]
    # for n = 2, AᵀDA = det A · D = D, and C′B − (C′B)ᵀ has −6319 above
    # the diagonal
    assert data["D"][0][0] == data["D"][1][1] == 0.0
    assert data["D"][1][0] == -data["D"][0][1]
    assert data["D"][0][1] == pytest.approx(0.49244133244068333 - 6319, abs=1e-9)


def test_torus_act_rejects_a_determinant_off_by_5e_4(capsys):
    # the C′ of the test above with one entry moved so that det C = 1.0005
    form = {
        "C": [[771.0, 1379.0], [3382.0, 6049.0 + 0.0005 / 771]],
        "D": [[0.0, 0.49244133244068333], [-0.49244133244068333, 0.0]],
    }
    code, out, err = run(
        capsys, "torus", "act", "--form", json.dumps(form), "--shear", '{"B":[[0,0],[0,0]]}'
    )
    assert code == 1 and out == ""
    assert "C must have determinant 1" in err


def test_torus_act_names_the_shape_of_a_flat_matrix(capsys):
    form = '{"C":[1.0,2.0],"D":[[0.0,0.0],[0.0,0.0]]}'
    code, out, err = run(capsys, "torus", "act", "--form", form, "--shear", '{"B":[[0,0],[0,0]]}')
    assert (code, out) == (1, "")
    assert err == "input error: expected a square matrix given as a list of rows\n"


def test_torus_act_rejects_a_determinant_past_the_float_range(capsys):
    # det C = 1e400 is exact, so it cannot pass for 1 when its Hadamard
    # slack overflows; a C with det 1 and entries near 1e154 still passes
    form = '{"C":[[1e200,0.0],[0.0,1e200]],"D":[[0.0,0.0],[0.0,0.0]]}'
    code, out, err = run(capsys, "torus", "act", "--form", form, "--shear", '{"B":[[0,0],[0,0]]}')
    assert (code, out) == (1, "") and err.startswith("input error:")
    form = '{"C":[[1e154,1e154],[0.0,1e-154]],"D":[[0.0,0.0],[0.0,0.0]]}'
    data = run_json(capsys, "torus", "act", "--form", form, "--shear", '{"B":[[0,0],[0,0]]}')
    assert data["C"] == [[1e154, 1e154], [0.0, 1e-154]]


def test_torus_blocks_verb(capsys):
    data = run_json(
        capsys,
        "torus", "blocks",
        "--omega", "[[0,1,0,0],[-1,0,0,0],[0,0,0,1],[0,0,-1,0]]",
        "--l", '{"basis":[[0,1,0,0],[0,0,0,1]]}',
        "--lprime", '{"basis":[[1,0,0,0],[0,0,1,0]]}',
    )
    assert data == {"C": [[1.0, 0.0], [0.0, 1.0]], "D": [[0.0, 0.0], [0.0, 0.0]]}


def test_torus_wedge_verb(capsys):
    data = run_json(
        capsys,
        "torus", "wedge",
        "--g", "[[1,1,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]",
    )
    assert len(data["matrix"]) == 6


def test_inputs_can_come_from_files(capsys, tmp_path):
    target = tmp_path / "target.json"
    target.write_text('{"C":[[1,0],[0,1]],"D":[[0,0],[0,0]]}')
    data = run_json(capsys, "torus", "approx", "--target", str(target), "--eps", "1e-2")
    assert data["err"] == 0.0


def test_explore_verb_csv_and_determinism(capsys):
    from latorb import orbit_explorer as oe
    from latorb.lattice_core import t4_model

    point = oe.project_to_hyperboloid(
        t4_model(), (0.3, 0.0, 1.0, 0.7, 0.25, 0.1), (1, 0, 0, 0, 0, 0)
    )
    y0 = json.dumps(list(point.coords))
    targets = json.dumps([list(point.coords)])
    args = (
        "explore", "--model", "t4", "--u", T4_U, "--y0", y0,
        "--targets", targets, "--depth", "2", "--format", "csv",
    )
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == 0 and code_b == 0
    assert out_a == out_b
    lines = out_a.strip().split("\n")
    assert lines[0].startswith("# caveat")
    assert lines[1] == "depth,target_id,min_dist,orbit_size"
    assert lines[2] == "0,0,0,1"


def test_explore_verb_json_format(capsys):
    from latorb import orbit_explorer as oe
    from latorb.lattice_core import t4_model

    point = oe.project_to_hyperboloid(
        t4_model(), (0.3, 0.0, 1.0, 0.7, 0.25, 0.1), (1, 0, 0, 0, 0, 0)
    )
    data = run_json(
        capsys,
        "explore", "--model", "t4", "--u", T4_U,
        "--y0", json.dumps(list(point.coords)),
        "--targets", json.dumps([list(point.coords)]),
        "--depth", "1",
    )
    assert "caveat" in data
    assert data["records"][0] == {
        "depth": 0,
        "target_id": 0,
        "min_dist": 0.0,
        "orbit_size": 1,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("torus", "approx", "--target", '{"C":[[1,0],[0,1]],"D":[[0,0],[0,0]]}',
         "--eps", "-1e-2"),
        ("torus", "approx", "--target", '{"C":[[1,0],[0,1]],"D":[[0,0],[0,0]]}',
         "--eps", "1e-2", "--delta", "-inf"),
        ("torus", "approx", "--target", '{"C":[[1,0],[0,1]],"D":[[0,0],[0,0]]}',
         "--eps", "1e-2", "--delta", "-1E+2"),
    ],
)
def test_negative_float_literal_is_a_value(capsys, argv):
    # a negative number in exponent or infinity spelling reaches the
    # domain check instead of being read as an option flag
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidTolerance"


Y0_T4 = "[0.0,0.0,0.594603557501361,0.8408964152537145,0.0,0.0]"
SYMBOLIC_Y_STRING_APPROX = SYMBOLIC_Y.replace("1.4142135623730951", '"1.4142135623730951"')


@pytest.mark.parametrize(
    "argv",
    [
        ("torus", "approx", "--eps", "1e-2", "--target",
         '{"C":[[NaN,0.0],[0.0,1.0]],"D":[[0.0,0.0],[0.0,0.0]]}'),
        ("torus", "approx", "--eps", "1e-2", "--target",
         '{"C":[[1.0,0.0],[0.0,1.0]],"D":[[0.0,Infinity],[-Infinity,0.0]]}'),
        ("torus", "blocks", "--omega", "[[0.0,NaN],[NaN,0.0]]",
         "--l", "[[1,0]]", "--lprime", "[[0,1]]"),
        ("explore", "--model", "t4", "--u", T4_U, "--y0", Y0_T4,
         "--targets", "[[NaN,0.0,1.0,0.5,0.0,0.0]]", "--depth", "1"),
        ("torus", "act", "--form", '{"C":[["1",0.0],[0.0,1.0]],"D":[[0.0,0.0],[0.0,0.0]]}',
         "--shear", '{"B":[[0,0],[0,0]]}'),
        ("torus", "act", "--form", '{"C":[[1.0,0.0],[0.0,true]],"D":[[0.0,0.0],[0.0,0.0]]}',
         "--shear", '{"B":[[0,0],[0,0]]}'),
        ("explore", "--model", "t4", "--u", T4_U, "--y0", Y0_T4.replace("0.0,0.0]", '0.0,"0"]'),
         "--targets", "[[0.0,0.0,1.0,0.5,0.0,0.0]]", "--depth", "1"),
        ("explore", "--model", "t4", "--u", T4_U, "--y0", Y0_T4,
         "--targets", "[[0.0,0.0,1.0,0.5,0.0,false]]", "--depth", "1"),
        ("irr", "certify", "--model", "t4", "--y", SYMBOLIC_Y_STRING_APPROX, "--height", "1"),
    ],
    ids=["nan-C", "infinite-D", "nan-omega", "nan-target", "string-C", "boolean-C",
         "string-y0", "boolean-target", "string-approx"],
)
def test_float_inputs_are_finite_json_numbers(capsys, argv):
    # NaN, ±Infinity, strings and booleans in a float field are input
    # errors: nothing is printed and the exit code is 1
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("input error:")


@pytest.mark.parametrize(
    "c, code",
    [("[[1.0],[0.0,1.0]]", 1), ("[[1.0,0.0,0.0],[0.0,1.0,0.0]]", 2)],
    ids=["ragged", "2x3"],
)
def test_float_matrix_shape_exit_codes(capsys, c, code):
    # rows of unequal length are a parse error; equal rows that do not
    # make a square are a domain rejection
    target = '{"C":%s,"D":[[0.0,0.0],[0.0,0.0]]}' % c
    got, out, err = run(capsys, "torus", "approx", "--eps", "1e-2", "--target", target)
    assert (got, out) == (code, "")
    if code == 2:
        assert json.loads(err)["error"] == "DimensionMismatch"
    else:
        assert err.startswith("input error:")


def test_explore_has_no_dedup_tol_option(capsys):
    # the dedup grid is orbit_explorer.DEDUP_TOL, not a per-call setting
    code, out, err = run(
        capsys,
        "explore", "--model", "t4", "--u", T4_U,
        "--y0", "[0.0,0.0,0.594603557501361,0.8408964152537145,0.0,0.0]",
        "--targets", "[[0.0,0.0,1.0,0.5,0.0,0.0]]",
        "--depth", "3", "--format", "csv", "--dedup-tol=1e-7",
    )
    assert code == 1 and out == ""
    assert err.startswith("argument error:")


# A full-rank basis of Z^7 of index > 1 with entries up to 5; a Smith-form
# elimination of it grows its entries past thousands of digits.
FULL_RANK_BASIS = json.dumps([
    [3, 4, -1, 4, 0, -5, -1],
    [-3, 3, 1, -1, 1, 0, -3],
    [-1, 5, -2, -5, -5, 2, -3],
    [-1, 1, 5, -1, 1, 4, 5],
    [2, 0, 3, 3, 0, 4, -5],
    [-3, 4, 2, 5, -5, 3, 2],
    [2, 0, -5, -2, 3, -5, 2],
])


def test_lattice_saturate_full_rank_basis():
    i7 = intlin.identity(7)
    done = run_process(
        "lattice", "saturate", "--lattice", json.dumps({"gram": i7}),
        "--basis", FULL_RANK_BASIS,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == json.dumps({"basis": i7}) + "\n"


def test_lattice_extend_rejects_unsaturated_full_rank_basis():
    done = run_process("lattice", "extend", "--basis", FULL_RANK_BASIS)
    assert done.returncode == 2 and done.stdout == ""
    assert json.loads(done.stderr)["error"] == "NotSaturated"


def test_lattice_extend_saturated_basis(capsys):
    basis = [[0, 1, 3], [2, -2, -1]]
    m = jsonio.decode_matrix(
        run_json(capsys, "lattice", "extend", "--basis", json.dumps(basis))["matrix"]
    )
    assert intlin.det_bareiss(m) == 1
    assert [[row[j] for row in m] for j in range(2)] == basis


def test_threads_flag_is_rejected(capsys):
    code, out, err = run(
        capsys, "lattice", "info", "--model", "u", "--threads", "4"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("argument error:")


def test_map_isotropic_readme_example_stdout(capsys):
    code, out, _ = run(
        capsys,
        "isom", "map-isotropic", "--model", "t4",
        "--u", "[1,0,0,0,0,0]", "--v", "[0,1,0,0,0,0]",
    )
    assert code == 0
    assert out == (
        '{"matrix": [[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], '
        "[0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0], "
        "[0, 0, 0, 0, 0, 1]]}\n"
    )


def readme_examples():
    """(argv, expected stdout lines) of each `$ latorb …` example in the
    README's shell blocks: a command runs on over lines that end in a
    backslash, and its output is the lines up to the next blank line."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        lines = iter(block.splitlines())
        for line in lines:
            if not line.startswith("$ latorb "):
                continue
            command = line
            while command.endswith("\\"):
                command = command[:-1] + next(lines)
            expected = []
            for out in lines:
                if not out:
                    break
                expected.append(out)
            examples.append((shlex.split(command[2:])[1:], expected))
    return examples


def matches_with_ellipses(expected, out):
    """Whether the printed lines match the expected ones, where `...`
    inside a line stands for any text and a line of `...` alone for any
    number of lines."""
    pattern = "".join(
        r"(?:[^\n]*\n)*" if line == "..." else
        r"[^\n]*".join(map(re.escape, line.split("..."))) + r"\n"
        for line in expected
    )
    return re.fullmatch(pattern, out) is not None


def test_matches_with_ellipses():
    assert matches_with_ellipses(["a...c"], "abbc\n")
    assert not matches_with_ellipses(["a...c"], "ab\nc\n")
    assert matches_with_ellipses(["a", "...", "z"], "a\nz\n")
    assert matches_with_ellipses(["a", "...", "z"], "a\nb\nc\nz\n")
    assert not matches_with_ellipses(["a", "z"], "a\nb\nz\n")
    assert not matches_with_ellipses(["a"], "a\nb\n")


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize(
    "argv, expected",
    README_EXAMPLES,
    ids=["-".join(a for a in argv[:2] if not a.startswith("-")) for argv, _ in README_EXAMPLES],
)
def test_readme_examples_print_what_the_readme_shows(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert matches_with_ellipses(expected, out), out


K3_IRR_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "irr_k3_cli_golden.json").read_text()
)


@pytest.mark.parametrize(
    "case", K3_IRR_GOLDEN["cases"], ids=lambda c: f"{c['args'][1]}-h{c['args'][-1]}"
)
def test_irr_verbs_on_k3_match_the_golden(capsys, case):
    # stdout of find-isotropic and certify on the engineered K3 class, as
    # recorded from the full coordinate-box search
    y = K3_IRR_GOLDEN["y"]
    assert jsonio.symbolic_from_json(y) == engineered_k3_vector()[1]
    code, out, err = run(capsys, *case["args"], "--y", json.dumps(y))
    assert code == 0, err
    assert out == case["stdout"]


EXACT_VERBS = [
    ["lattice", "info", "--model", "k3"],
    ["lattice", "inner", "--model", "t4", "--v", T4_U, "--w", "[0,1,0,0,0,0]"],
    ["lattice", "split", "--model", "t4", "--u", T4_U],
    ["lattice", "ortho", "--model", "t4", "--vectors", "[" + T4_U + "]"],
    ["lattice", "saturate", "--model", "t4", "--basis", "[[2,0,0,0,0,0]]"],
    ["lattice", "extend", "--basis", "[[0,1,3],[2,-2,-1]]"],
    ["isom", "transvect", "--model", "t4", "--e", T4_U, "--a", "[0,0,1,0,0,0]"],
    ["isom", "map-isotropic", "--model", "t4", "--u", T4_U, "--v", "[0,1,0,0,0,0]"],
    ["isom", "check", "--model", "t4", "--g", json.dumps(intlin.identity(6)),
     "--u", T4_U, "--y", SYMBOLIC_Y],
    ["isom", "generators", "--model", "t4", "--u", T4_U],
    ["irr", "find-isotropic", "--model", "t4", "--y", SYMBOLIC_Y, "--height", "2"],
    ["irr", "check-u", "--model", "t4", "--u", T4_U, "--y", SYMBOLIC_Y],
    ["irr", "certify", "--model", "t4", "--y", SYMBOLIC_Y, "--height", "1"],
    ["torus", "blocks", "--omega", "[[0,1,0,0],[-1,0,0,0],[0,0,0,1],[0,0,-1,0]]",
     "--l", "[[0,1,0,0],[0,0,0,1]]", "--lprime", "[[1,0,0,0],[0,0,1,0]]"],
    ["torus", "act", "--form", '{"C":[[1,0],[0,1]],"D":[[0,0.5],[-0.5,0]]}',
     "--shear", '{"B":[[0,1],[0,0]]}'],
    ["torus", "approx", "--target", '{"C":[[1.0,0.0],[0.0,1.0]],"D":[[0.0,-0.3],[0.3,0.0]]}',
     "--eps", "1e-2"],
    ["torus", "wedge", "--g", json.dumps(intlin.identity(4))],
]
NUMPY_VERBS = [
    ["explore", "--model", "t4", "--u", T4_U, "--y0", Y0_T4,
     "--targets", "[[0.0,0.0,1.0,0.5,0.0,0.0]]", "--depth", "1"],
]

# Runs each verb given as JSON in turn and prints, per verb, its exit code
# and whether numpy and mpmath are loaded after it.
_LOADED_AFTER_EACH_VERB = """
import contextlib, io, json, sys
from latorb.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    out.append([argv[:2], code, "numpy" in sys.modules, "mpmath" in sys.modules])
print(json.dumps(out))
"""


def test_each_verb_loads_only_the_packages_it_uses():
    # numpy is for the explore verb alone, and no verb loads mpmath: every
    # other verb, norm signs and the torus solver included, loads neither
    # package
    done = run_python("-c", "import sys, latorb.cli; "
                      "print(sorted({'numpy', 'mpmath'} & set(sys.modules)))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    verbs = EXACT_VERBS + NUMPY_VERBS
    done = run_python("-c", _LOADED_AFTER_EACH_VERB, json.dumps(verbs))
    assert done.returncode == 0, done.stderr
    expected = [[argv[:2], 0, False, False] for argv in EXACT_VERBS]
    expected += [[argv[:2], 0, True, False] for argv in NUMPY_VERBS]
    assert json.loads(done.stdout) == expected


FRACTION_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "irr_fraction_cli_golden.json").read_text()
)


@pytest.mark.parametrize(
    "case",
    FRACTION_GOLDEN["cases"],
    ids=lambda c: f"{c['y']}-{c['args'][1]}-{c['args'][-1]}",
)
def test_irr_verbs_on_p_q_coefficients_match_the_golden(capsys, case):
    # two-symbol T4 classes whose coefficients are "p/q" strings: a rank-3
    # class (certified) and a rank-2 class with an isotropic radical
    # (refuted by a radical vector that is not first in the full search)
    y = FRACTION_GOLDEN["classes"][case["y"]]
    code, out, err = run(capsys, *case["args"], "--y", json.dumps(y))
    assert code == 0, err
    assert out == case["stdout"]
