package ship

import "viator/internal/roles"

// Generation returns the ship's WN generation.
func (s *Ship) Generation() int { return s.cfg.Generation }

// RoleSwitches returns how many modal role changes occurred — the "role
// change" statistic of the wandering-function experiments.
func (s *Ship) RoleSwitches() int { return s.roleSwitches }

// ModalProcessor returns the resident function's processor.
func (s *Ship) ModalProcessor() roles.Processor { return s.modalProc }

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

// Processor returns the processor serving the given role: the modal one
// if it matches, otherwise an installed auxiliary. ok is false when the
// ship does not currently host the role.
func (s *Ship) Processor(k roles.Kind) (roles.Processor, bool) {
	if k == s.modal {
		return s.modalProc, true
	}
	p, ok := s.aux[k]
	return p, ok
}
