"""Project loading: module names, imports, sanitizers, dispatch tables."""

from __future__ import annotations

from tools.flow.project import load_project

from tests.devtools.flow.conftest import FLOWPKG


class TestModuleNaming:
    def test_package_root_becomes_dotted_prefix(self, flow_project):
        assert "flowpkg.cli" in flow_project.modules
        assert "flowpkg.storage" in flow_project.modules

    def test_init_module_is_the_package_itself(self, flow_project):
        assert "flowpkg" in flow_project.modules
        assert flow_project.modules["flowpkg"].is_package

    def test_no_load_errors(self, flow_project):
        assert flow_project.errors == []

    def test_overlapping_roots_load_each_file_once(self, tmp_path):
        package = tmp_path / "pkg"
        (package / "sub").mkdir(parents=True)
        (package / "sub" / "mod.py").write_text("x = 1\n")
        project = load_project([str(package), str(package / "sub")])
        assert [m.path for m in project.modules.values()] == [
            str(package / "sub" / "mod.py")
        ]

    def test_shadowed_module_name_is_a_load_error(self, tmp_path):
        for tree in ("a", "b"):
            (tmp_path / tree / "pkg").mkdir(parents=True)
            (tmp_path / tree / "pkg" / "mod.py").write_text("x = 1\n")
        project = load_project(
            [str(tmp_path / "a" / "pkg"), str(tmp_path / "b" / "pkg")]
        )
        assert project.modules["pkg.mod"].path == str(tmp_path / "a" / "pkg" / "mod.py")
        (error,) = project.errors
        assert error[0] == str(tmp_path / "b" / "pkg" / "mod.py")
        assert "already loaded" in error[2]


class TestImports:
    def test_plain_from_import(self, flow_project):
        cli = flow_project.modules["flowpkg.cli"]
        assert cli.imports["storage"] == "flowpkg.storage"

    def test_aliased_import(self, flow_project):
        cli = flow_project.modules["flowpkg.cli"]
        assert cli.imports["grab"] == "flowpkg.web.fetch_page"

    def test_stdlib_import(self, flow_project):
        cli = flow_project.modules["flowpkg.cli"]
        assert cli.imports["time"] == "time"


class TestFunctionIndex:
    def test_methods_carry_class_and_symbol(self, flow_project):
        unit = flow_project.functions["flowpkg.engine.Engine.run"]
        assert unit.symbol == "Engine.run"
        assert unit.class_name == "flowpkg.engine.Engine"
        assert unit.params[0] == "self"

    def test_by_name_fallback_index(self, flow_project):
        assert "flowpkg.engine.Engine.process" in flow_project.by_name["process"]

    def test_sanitizer_decorators_are_read(self, flow_project):
        tokenize = flow_project.functions["flowpkg.clean.tokenize"]
        assert tokenize.sanitizes == frozenset({"*"})
        safe_name = flow_project.functions["flowpkg.clean.safe_name"]
        assert safe_name.sanitizes == frozenset({"path"})
        plain = flow_project.functions["flowpkg.storage.store"]
        assert plain.sanitizes is None


class TestDispatchTables:
    def test_module_level_dict_of_function_refs(self, flow_project):
        table = flow_project.dispatch_tables["flowpkg.engine.HANDLERS"]
        assert set(table) == {
            "flowpkg.engine.handle_fast",
            "flowpkg.engine.handle_slow",
        }


class TestSuppressions:
    def test_flow_marker_parsed(self, flow_project):
        storage = flow_project.modules["flowpkg.storage"]
        suppressed_lines = [
            line
            for line, ids in storage.suppressions["repro-flow"][0].items()
            if "T001" in ids
        ]
        assert len(suppressed_lines) == 1

    def test_syntax_errors_recorded_not_raised(self, tmp_path):
        package = tmp_path / "badpkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "broken.py").write_text("def f(:\n")
        project = load_project([str(package)])
        assert len(project.errors) == 1
        assert "syntax error" in project.errors[0][2]
        assert "badpkg" in project.modules  # the rest still loads


class TestEntrypoints:
    def test_cli_public_functions_are_entrypoints(self, flow_project):
        names = {u.qualname for u in flow_project.entrypoints()}
        assert "flowpkg.cli.main" in names
        assert "flowpkg.cli.elapsed_filter" in names

    def test_private_and_non_entry_modules_excluded(self, flow_project):
        names = {u.qualname for u in flow_project.entrypoints()}
        assert "flowpkg.helpers.sample_scores" not in names

    def test_extra_entrypoints_appended(self, flow_project):
        names = {
            u.qualname
            for u in flow_project.entrypoints(["flowpkg.helpers.unreached_jitter"])
        }
        assert "flowpkg.helpers.unreached_jitter" in names


def test_fixture_package_location_exists():
    assert (FLOWPKG / "cli.py").is_file()
