"""Tests for URL parsing and endpoint extraction."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import InvalidURLError
from repro.web.url import ParsedURL, endpoint, parse_url


class TestParseURL:
    def test_basic_http(self):
        parsed = parse_url("http://example.com/path")
        assert parsed.scheme == "http"
        assert parsed.host == "example.com"
        assert parsed.path == "/path"

    def test_https(self):
        assert parse_url("https://example.com/").scheme == "https"

    def test_host_lowercased(self):
        assert parse_url("http://Example.COM/x").host == "example.com"

    def test_no_path_defaults_to_slash(self):
        assert parse_url("http://example.com").path == "/"

    def test_query_stripped(self):
        assert parse_url("http://example.com/a?b=c").path == "/a"

    def test_fragment_stripped(self):
        assert parse_url("http://example.com/a#frag").path == "/a"

    def test_port_dropped(self):
        assert parse_url("http://example.com:8080/a").host == "example.com"

    def test_str_roundtrip(self):
        parsed = parse_url("https://www.example.com/a/b")
        assert str(parsed) == "https://www.example.com/a/b"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "example.com/path",  # no scheme
            "ftp://example.com/",  # unsupported scheme
            "http:///path",  # empty host
            "http://host..dots/",  # empty label
            "http://.leading.com/",  # empty first label
            "http://localhost/",  # no dot
        ],
    )
    def test_invalid_urls_raise(self, bad):
        with pytest.raises(InvalidURLError):
            parse_url(bad)

    def test_non_string_raises(self):
        with pytest.raises(InvalidURLError):
            parse_url(None)  # type: ignore[arg-type]


class TestEndpoint:
    def test_plain_domain(self):
        assert endpoint("http://example.com/") == "example.com"

    def test_www_stripped_to_sld(self):
        assert endpoint("http://www.fda.gov/consumers/page.htm") == "fda.gov"

    def test_deep_subdomain(self):
        assert endpoint("https://a.b.c.example.com/") == "example.com"

    def test_multi_part_suffix(self):
        assert endpoint("http://shop.example.co.uk/x") == "example.co.uk"

    def test_paper_examples(self):
        assert (
            endpoint("http://www.medicalnewstoday.com/articles/238663.php")
            == "medicalnewstoday.com"
        )
        assert (
            endpoint(
                "http://www.fda.gov/forconsumers/consumerupdates/ucm149202.htm"
            )
            == "fda.gov"
        )

    def test_bare_multi_part_suffix_raises(self):
        with pytest.raises(InvalidURLError):
            endpoint("http://co.uk/")

    def test_hyphenated_domain(self):
        assert (
            endpoint("https://www.securebilling-page.com/pay")
            == "securebilling-page.com"
        )


class TestRegisteredDomainProperty:
    def test_parsed_url_exposes_registered_domain(self):
        assert (
            parse_url("https://news.example.com/x").registered_domain
            == "example.com"
        )

    def test_frozen(self):
        parsed = parse_url("http://example.com/")
        with pytest.raises(AttributeError):
            parsed.host = "other.com"  # type: ignore[misc]

    def test_bare_public_suffix_parses_but_has_no_domain(self):
        parsed = parse_url("http://co.uk/")
        assert parsed.host == "co.uk"
        with pytest.raises(InvalidURLError):
            parsed.registered_domain


class TestParsedURLCachedDomain:
    """The cached domain is invisible to equality, hashing and repr."""

    def test_eq_and_hash_follow_the_three_fields(self):
        a = parse_url("https://www.example.com/a")
        b = ParsedURL(scheme="https", host="www.example.com", path="/a")
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(("https", "www.example.com", "/a"))
        assert a != ParsedURL(scheme="https", host="www.example.com", path="/b")

    def test_repr_unchanged(self):
        assert repr(parse_url("https://www.example.com/a")) == (
            "ParsedURL(scheme='https', host='www.example.com', path='/a')"
        )

    @pytest.mark.parametrize(
        "url", ["https://www.example.com/a", "http://shop.x.co.uk/", "http://co.uk/"]
    )
    def test_pickle_roundtrip(self, url):
        parsed = parse_url(url)
        back = pickle.loads(pickle.dumps(parsed))
        assert back == parsed and hash(back) == hash(parsed)
        assert repr(back) == repr(parsed)
        assert back._domain == parsed._domain


class TestUserinfo:
    def test_userinfo_host_is_the_real_host(self):
        parsed = parse_url("http://good.com@evil.com/x")
        assert parsed.host == "evil.com"
        assert endpoint("http://good.com@evil.com/x") == "evil.com"

    def test_userinfo_with_password_and_port(self):
        assert endpoint("http://user:pw@evil.com:8080/") == "evil.com"
        assert str(parse_url("http://user:pw@evil.com:8080/")) == "http://evil.com/"

    def test_last_at_sign_ends_userinfo(self):
        assert endpoint("https://a@b.com@www.evil.com/") == "evil.com"

    def test_at_sign_in_path_is_not_userinfo(self):
        assert parse_url("https://www.shop.com/u/@me").host == "www.shop.com"


class TestIPv4Literal:
    def test_dotted_quad_is_its_own_domain(self):
        assert endpoint("http://10.0.0.1/") == "10.0.0.1"
        assert endpoint("http://192.168.0.1:8080/admin") == "192.168.0.1"

    def test_distinct_addresses_stay_distinct(self):
        assert endpoint("http://10.0.0.1/") != endpoint("http://192.168.0.1/")

    def test_numeric_label_in_a_name_is_not_an_address(self):
        assert endpoint("http://1.2.3.example.com/") == "example.com"

    @pytest.mark.parametrize(
        "url, domain",
        [
            ("http://shop.example.123/", "example.123"),
            ("http://1.2.3.4.5/", "4.5"),
            ("http://1.2.3.4/", "1.2.3.4"),
        ],
    )
    def test_digit_final_hosts(self, url, domain):
        assert endpoint(url) == domain

    def test_directly_built_uppercase_host(self):
        assert ParsedURL("http", "WWW.Example.COM", "/").registered_domain == "example.com"
        assert ParsedURL("http", "10.0.0.1", "/").registered_domain == "10.0.0.1"


_label = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789"),
    min_size=1,
    max_size=8,
)


@given(sub=_label, dom=_label, tld=st.sampled_from(["com", "net", "org", "gov"]))
def test_endpoint_drops_any_subdomain(sub, dom, tld):
    """Property: endpoint(sub.dom.tld) == dom.tld for plain TLDs."""
    assert endpoint(f"http://{sub}.{dom}.{tld}/p") == f"{dom}.{tld}"


@given(dom=_label, tld=st.sampled_from(["com", "net", "org"]))
def test_endpoint_idempotent(dom, tld):
    """Property: applying endpoint to an endpoint-URL is a fixpoint."""
    first = endpoint(f"https://{dom}.{tld}/")
    assert endpoint(f"https://{first}/") == first


class TestResolveURL:
    def test_absolute_passthrough(self):
        from repro.web.url import resolve_url

        assert (
            resolve_url("https://www.a.com/x", "http://b.com/y")
            == "http://b.com/y"
        )

    def test_root_relative(self):
        from repro.web.url import resolve_url

        assert (
            resolve_url("https://www.a.com/deep/page", "/cart")
            == "https://www.a.com/cart"
        )

    def test_path_relative(self):
        from repro.web.url import resolve_url

        assert (
            resolve_url("https://www.a.com/shop/item", "reviews")
            == "https://www.a.com/shop/reviews"
        )

    def test_parent_traversal(self):
        from repro.web.url import resolve_url

        assert (
            resolve_url("https://www.a.com/a/b/c", "../../d")
            == "https://www.a.com/d"
        )

    def test_parent_traversal_beyond_root_clamped(self):
        from repro.web.url import resolve_url

        assert (
            resolve_url("https://www.a.com/a", "../../../x")
            == "https://www.a.com/x"
        )

    def test_protocol_relative(self):
        from repro.web.url import resolve_url

        assert (
            resolve_url("https://www.a.com/", "//cdn.net/lib.js")
            == "https://cdn.net/lib.js"
        )

    def test_fragment_only_resolves_to_page(self):
        from repro.web.url import resolve_url

        assert (
            resolve_url("https://www.a.com/page", "#top")
            == "https://www.a.com/page"
        )

    def test_query_stripped(self):
        from repro.web.url import resolve_url

        assert (
            resolve_url("https://www.a.com/x", "/search?q=1")
            == "https://www.a.com/search"
        )

    def test_trailing_slash_kept(self):
        from repro.web.url import resolve_url

        assert (
            resolve_url("https://www.a.com/x", "/dir/")
            == "https://www.a.com/dir/"
        )

    def test_mailto_rejected(self):
        from repro.web.url import resolve_url

        with pytest.raises(InvalidURLError):
            resolve_url("https://www.a.com/", "mailto:x@y.com")

    def test_empty_rejected(self):
        from repro.web.url import resolve_url

        with pytest.raises(InvalidURLError):
            resolve_url("https://www.a.com/", "   ")
