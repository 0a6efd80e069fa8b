// httpapi.New may build its default admission controller; any other
// function of the package may not.
package httpapi

import (
	"log"

	"mcbound/internal/admission"
)

type Server struct{ adm *admission.Controller }

func New() *Server {
	return &Server{adm: admission.NewController(admission.DefaultConfig())}
}

func (s *Server) reset() {
	s.adm = admission.NewController(admission.DefaultConfig()) // want wiring/admission
}

// Negative control: httpapi keeps its *log.Logger, the log rule's one
// named exception.
func (s *Server) accessLine(l *log.Logger, path string) { l.Printf("path=%s", path) }
