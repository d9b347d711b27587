package core

import "repro/internal/bgp"

// Announcement-control communities (paper §3.2.1): vBGP defines
// whitelist/blacklist communities for every neighbor. An experiment tags
// an announcement with PlatformASN:<id> to export it only to the
// neighbor with that platform ID, or PlatformASN:<NoExportBase+id> to
// exclude that neighbor. Untagged announcements go to all neighbors.
// Control communities are consumed by vBGP and stripped before export to
// the Internet.
//
// The standard form requires the platform ASN to fit in 16 bits (true of
// Peering's primary ASN, 47065). The large-community form (RFC 8092,
// below) is the 4-byte one and works for any platform ASN. An
// announcement's control communities, of both forms, are stored with
// the route as the experiment sent them and relayed across the backbone
// as sent: they are the record of its export policy, read where a
// neighbor's export is decided and stripped where it is made.
const (
	// NoExportBase offsets blacklist community values.
	NoExportBase = 10000
	// maxNeighborID bounds neighbor IDs so whitelist and blacklist
	// value ranges cannot collide.
	maxNeighborID = NoExportBase - 1
	// internalOnlyID is a reserved pseudo-neighbor: a route whitelisted
	// to it is never exported to any real neighbor. Used for
	// platform-internal routes such as experiment-LAN prefixes relayed
	// over the backbone. Real neighbor IDs must stay below it.
	internalOnlyID = maxNeighborID
)

// AnnounceTo builds the whitelist community for a neighbor ID.
func AnnounceTo(platformASN uint32, neighborID uint32) bgp.Community {
	return bgp.NewCommunity(uint16(platformASN), uint16(neighborID))
}

// NoExportTo builds the blacklist community for a neighbor ID.
func NoExportTo(platformASN uint32, neighborID uint32) bgp.Community {
	return bgp.NewCommunity(uint16(platformASN), uint16(NoExportBase+neighborID))
}

// Large-community function values (RFC 8092): the platform's large
// communities are <PlatformASN>:<function>:<neighborID>, usable by
// platforms whose ASN does not fit the 16-bit regular-community field.
const (
	largeFnAnnounceTo = 1
	largeFnNoExportTo = 2
	// largeFnValidationState stamps routes exported to experiments with
	// their RPKI origin-validation state (RFC 8097 in spirit):
	// <PlatformASN>:3:<state>, state per rpki.State (0 NotFound, 1
	// Valid, 2 Invalid). Informational — experiments choose routes
	// themselves, and many deliberately study Invalid ones.
	largeFnValidationState = 3
)

// LargeAnnounceTo builds the large-community whitelist for a neighbor.
func LargeAnnounceTo(platformASN, neighborID uint32) bgp.LargeCommunity {
	return bgp.LargeCommunity{Global: platformASN, Local1: largeFnAnnounceTo, Local2: neighborID}
}

// control classifies a standard community: ok reports whether it is a
// control community addressed to platformASN, id the neighbor it names
// and deny whether it blacklists that neighbor rather than whitelisting
// it. Value 0 controls nothing.
func control(platformASN uint32, c bgp.Community) (id uint32, deny, ok bool) {
	if uint32(c.ASN()) != platformASN {
		return 0, false, false
	}
	switch v := uint32(c.Value()); {
	case v >= NoExportBase && v <= NoExportBase+maxNeighborID:
		return v - NoExportBase, true, true
	case v > 0:
		return v, false, true
	}
	return 0, false, false
}

// largeControl is control for large communities.
func largeControl(platformASN uint32, c bgp.LargeCommunity) (id uint32, deny, ok bool) {
	if c.Global != platformASN {
		return 0, false, false
	}
	switch c.Local1 {
	case largeFnAnnounceTo:
		return c.Local2, false, true
	case largeFnNoExportTo:
		return c.Local2, true, true
	}
	return 0, false, false
}

// exportsTo reports whether an announcement carrying attrs goes to the
// neighbor with platform ID id: not when a control community blacklists
// it, and — when any whitelists a neighbor — only when one whitelists it.
func exportsTo(platformASN uint32, attrs *bgp.PathAttrs, id uint32) bool {
	var denied, whitelist, listed bool
	note := func(cid uint32, deny, ok bool) {
		switch {
		case !ok:
		case deny:
			denied = denied || cid == id
		default:
			whitelist, listed = true, listed || cid == id
		}
	}
	for _, c := range attrs.Communities {
		note(control(platformASN, c))
	}
	for _, c := range attrs.LargeCommunities {
		note(largeControl(platformASN, c))
	}
	return !denied && (!whitelist || listed)
}

// splitControls returns a shallow copy of attrs without the control
// communities addressed to platformASN, and those control communities;
// any of the slices may be attrs' own (partition).
func splitControls(platformASN uint32, attrs *bgp.PathAttrs) (rest bgp.PathAttrs, ctl []bgp.Community, ctlLarge []bgp.LargeCommunity) {
	rest = *attrs
	rest.Communities, ctl = partition(attrs.Communities, func(c bgp.Community) bool {
		_, _, ok := control(platformASN, c)
		return ok
	})
	rest.LargeCommunities, ctlLarge = partition(attrs.LargeCommunities, func(c bgp.LargeCommunity) bool {
		_, _, ok := largeControl(platformASN, c)
		return ok
	})
	return rest, ctl, ctlLarge
}

// partition splits s, in order, into the elements in does not hold for
// and those it holds for. A side that gets every element is s itself, a
// side that gets none is nil.
func partition[E any](s []E, in func(E) bool) (out, matched []E) {
	n := 0
	for _, e := range s {
		if in(e) {
			n++
		}
	}
	switch n {
	case 0:
		return s, nil
	case len(s):
		return nil, s
	}
	out, matched = make([]E, 0, len(s)-n), make([]E, 0, n)
	for _, e := range s {
		if in(e) {
			matched = append(matched, e)
		} else {
			out = append(out, e)
		}
	}
	return out, matched
}
