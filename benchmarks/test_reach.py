"""The production-reach probe (``benchmarks/reach.py``) on a fixture
package: one traced run, then the analysis must name exactly the one
function nothing called -- counting a def nested in it as its lines,
not as a second entry, and counting the calls a forked child made."""

import os
import sys
import textwrap

import reach

FIXTURE = textwrap.dedent('''\
    import abc
    import os


    def called():
        return 1


    def uncalled():
        def inner():
            return 2
        return inner()


    def deco(fn):
        return fn


    @deco
    def decorated():
        return 3


    class Base(abc.ABC):
        @abc.abstractmethod
        def hook(self):
            """Abstract: never runs, never counted."""


    class Impl(Base):
        def hook(self):
            return 4


    def outer():
        def nested():
            return 5
        return nested()


    def forked():
        return 6


    def main():
        called(), decorated(), Impl().hook(), outer()
        pid = os.fork()
        if pid == 0:
            forked()
            os._exit(0)
        os.waitpid(pid, 0)
    ''')


def test_only_the_uncalled_function_is_reported(tmp_path):
    src = tmp_path / "src"
    (src / "fixture").mkdir(parents=True)
    (src / "fixture" / "__init__.py").write_text("")
    (src / "fixture" / "mod.py").write_text(FIXTURE)
    driver = tmp_path / "driver.py"
    driver.write_text("from fixture.mod import main\nmain()\n")

    reached, failed = reach.trace([[sys.executable, str(driver)]],
                                  cwd=str(tmp_path), src=str(src),
                                  work=str(tmp_path / "work"))
    assert failed == []
    funcs = reach.defined_functions(str(src))
    names = {f.qualname for f in funcs}
    assert "Base.hook" not in names and "Impl.hook" in names
    assert "uncalled.inner" in names

    missed = reach.unreached(funcs, reached)
    assert [(f.module, f.qualname, f.lines) for f in missed] == [
        (os.path.join("fixture", "mod.py"), "uncalled", 4)]
    assert reach.report(funcs, missed).splitlines()[-1] == (
        f"unreached: 1 of {len(funcs)} functions (4 lines) in src/")
