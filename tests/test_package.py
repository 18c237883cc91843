import dioph
from dioph import arith, extension, pell, tuples

MODULES = (arith, extension, pell, tuples)


def test_package_exports_exactly_the_public_names_of_its_modules():
    names = set().union(*(m.__all__ for m in MODULES))
    assert len(names) == sum(len(m.__all__) for m in MODULES) == 27
    assert set(dioph.__all__) == names
    assert len(dioph.__all__) == len(names)


def test_every_exported_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dioph, name) is getattr(module, name)
