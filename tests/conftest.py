"""Hypothesis profiles for the property tests.

``default`` draws 100 examples per property and ``ci`` draws 1000; select
one with ``pytest --hypothesis-profile=ci``. The property settings in
``test_pmf_properties.py`` take ``max_examples`` from the profile loaded when
they are defined.
"""

from hypothesis import settings

settings.register_profile("default", max_examples=100)
settings.register_profile("ci", max_examples=1000)
settings.load_profile("default")
