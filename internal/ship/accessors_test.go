package ship

import "viator/internal/roles"

// Generation returns the ship's WN generation.
func (s *Ship) Generation() int { return s.cfg.Generation }

// AuxRoles returns installed auxiliary roles in installation order.
func (s *Ship) AuxRoles() []roles.Kind {
	out := make([]roles.Kind, len(s.auxOrder))
	copy(out, s.auxOrder)
	return out
}

// AuxRolesInto appends the installed auxiliary roles to buf[:0] in
// installation order — the caller-owned-scratch form of AuxRoles. The
// returned snapshot stays valid across later InstallAux calls.
func (s *Ship) AuxRolesInto(buf []roles.Kind) []roles.Kind {
	out := buf[:0]
	for _, k := range s.auxOrder {
		out = append(out, k)
	}
	return out
}
