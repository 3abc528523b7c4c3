import perceptpool


def test_every_export_is_an_attribute():
    assert len(set(perceptpool.__all__)) == len(perceptpool.__all__)
    assert [name for name in perceptpool.__all__ if not hasattr(perceptpool, name)] == []
