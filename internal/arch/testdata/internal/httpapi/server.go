// httpapi.New may build its default admission controller; any other
// function of the package may not.
package httpapi

import "mcbound/internal/admission"

type Server struct{ adm *admission.Controller }

func New() *Server {
	return &Server{adm: admission.NewController(admission.DefaultConfig())}
}

func (s *Server) reset() {
	s.adm = admission.NewController(admission.DefaultConfig()) // want wiring/admission
}
